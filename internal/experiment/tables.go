package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/kernel"
	"repro/internal/mutation"
	"repro/internal/mutation/cmut"
	"repro/internal/mutation/devilmut"
	"repro/internal/specs"
)

// This file holds the paper's tables: Table 2 (the Devil compiler over
// every specification's mutants), the driver-table row taxonomy that
// classifyRow assigns, and FormatDriverTable, which renders one
// aggregated campaign cell as Table 3 or 4. The driver tables themselves
// come from a campaign (RunTables, or a persisted store).

// ExperimentBudget is the watchdog budget used for mutant boots: ~23× a
// clean boot (17k steps), and comfortably above the longest legitimate
// driver-timeout path (~140k steps), so watchdog expiry reliably means a
// non-terminating loop.
const ExperimentBudget = 400_000

// DefaultBootWallBudget is the wall-clock deadline campaign workers arm
// per boot behind the deterministic step watchdog: a harness safety net
// against real time sinks the step count cannot see, orders of
// magnitude above any legitimate boot (milliseconds). Overridable per
// spec via BootTimeoutMS.
const DefaultBootWallBudget = 30 * time.Second

// SpecRow is one row of Table 2.
type SpecRow struct {
	Title    string
	Lines    int
	Sites    int
	Mutants  int
	Detected int
}

// PctDetected is the Table 2 percentage.
func (r SpecRow) PctDetected() float64 {
	if r.Mutants == 0 {
		return 0
	}
	return 100 * float64(r.Detected) / float64(r.Mutants)
}

// Table2 runs the Devil-compiler coverage experiment over every embedded
// specification: enumerate all mutants, compile each, count detections.
func Table2() ([]SpecRow, error) {
	var rows []SpecRow
	for _, s := range specs.All() {
		row, err := Table2Row(s)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table2Row runs the Table 2 experiment for a single specification.
func Table2Row(s specs.Spec) (SpecRow, error) {
	res, err := devilmut.Enumerate(s.Source)
	if err != nil {
		return SpecRow{}, fmt.Errorf("spec %s: %w", s.Name, err)
	}
	row := SpecRow{
		Title:   s.Title,
		Lines:   s.Lines(),
		Sites:   len(res.Sites),
		Mutants: len(res.Mutants),
	}
	detected := parallelCount(len(res.Mutants), func(i int) bool {
		ok, _ := devilmut.CheckMutant(res, res.Mutants[i], s.Filename)
		return ok
	})
	row.Detected = detected
	return row, nil
}

// Row labels, in the paper's presentation order.
const (
	RowCompile = "Compile-time check"
	RowRuntime = "Run-time check"
	RowCrash   = "Crash"
	RowLoop    = "Infinite loop"
	RowHalt    = "Halt"
	RowDamaged = "Damaged boot"
	RowBoot    = "Boot"
	RowDead    = "Dead code"
)

// RowOrder is the presentation order of driver-table rows.
var RowOrder = []string{
	RowCompile, RowRuntime, RowCrash, RowLoop, RowHalt, RowDamaged, RowBoot, RowDead,
}

// DetectedPct is the paper's headline metric: mutants detected either at
// compile time or by a run-time check, as a share of the selected ones.
func DetectedPct(t *campaign.TableData) float64 {
	if t.Selected == 0 {
		return 0
	}
	return 100 * float64(t.Counts[RowCompile]+t.Counts[RowRuntime]) / float64(t.Selected)
}

// SilentPct is the worst-case metric: mutants that boot with no observable
// effect.
func SilentPct(t *campaign.TableData) float64 { return t.Pct(RowBoot) }

// classifyRow maps a boot result to its table row, applying the dead-code
// rule: a clean boot whose mutation site never executed is an irrelevant
// test (§4.2 case 2).
func classifyRow(br *BootResult, site cmut.Site) string {
	if br.CompileDetected() {
		return RowCompile
	}
	if br.Outcome == kernel.OutcomeBoot && !br.Coverage.Covered(site.Pos.Line) {
		return RowDead
	}
	switch br.Outcome {
	case kernel.OutcomeRuntimeCheck:
		return RowRuntime
	case kernel.OutcomeCrash:
		return RowCrash
	case kernel.OutcomeInfiniteLoop:
		return RowLoop
	case kernel.OutcomeHalt:
		return RowHalt
	case kernel.OutcomeDamagedBoot:
		return RowDamaged
	default:
		return RowBoot
	}
}

// selectMutants picks the pct% sample (every mutant for 0 or 100) of an
// n-mutant enumeration, deterministically in seed.
func selectMutants(n, pct int, seed uint64) []int {
	if pct <= 0 || pct >= 100 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	k := n * pct / 100
	if k < 1 {
		k = 1
	}
	return mutation.Sample(n, k, seed)
}

// parallelCount runs pred over [0,n) on all cores and counts true results,
// delegating the fan-out to the campaign engine's pool primitive.
func parallelCount(n int, pred func(i int) bool) int {
	results := make([]bool, n)
	campaign.ParallelDo(n, 0, func(i int) { results[i] = pred(i) })
	count := 0
	for _, b := range results {
		if b {
			count++
		}
	}
	return count
}

// FormatTable2 renders Table 2 in the paper's layout.
func FormatTable2(rows []SpecRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Mutation coverage of the Devil compiler\n")
	fmt.Fprintf(&b, "%-34s %8s %8s %10s %12s\n",
		"", "Lines", "Sites", "Mutants", "% detected")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-34s %8d %8d %10d %11.1f%%\n",
			r.Title, r.Lines, r.Sites, r.Mutants, r.PctDetected())
	}
	return b.String()
}

// FormatDriverTable renders one aggregated cell as Table 3 or 4 in the
// paper's layout.
func FormatDriverTable(t *campaign.TableData, caption string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", caption)
	fmt.Fprintf(&b, "%-22s %8s %10s %12s\n",
		"", "Sites", "Mutants", "% of total")
	inOrder := make(map[string]bool, len(RowOrder))
	for _, row := range RowOrder {
		inOrder[row] = true
		if t.Counts[row] == 0 && (row == RowRuntime || row == RowDead) &&
			t.Driver == "ide_c" {
			continue // the C table has no run-time-check or dead-code rows
		}
		fmt.Fprintf(&b, "%-22s %8d %10d %11.1f%%\n",
			row, t.Sites(row), t.Counts[row], t.Pct(row))
	}
	// Engine-level rows outside the paper's taxonomy (e.g. the campaign's
	// "Harness panic" quarantine row) print only when present, so they
	// are never silently dropped from a report.
	var extra []string
	for row, n := range t.Counts {
		if n > 0 && !inOrder[row] {
			extra = append(extra, row)
		}
	}
	sort.Strings(extra)
	for _, row := range extra {
		fmt.Fprintf(&b, "%-22s %8d %10d %11.1f%%\n",
			row, t.Sites(row), t.Counts[row], t.Pct(row))
	}
	fmt.Fprintf(&b, "%-22s %8d %10d (of %d enumerated)\n",
		"Total", t.TotalSites, t.Selected, t.Enumerated)
	fmt.Fprintf(&b, "Detected (compile or run-time): %.1f%%   Silent boots: %.1f%%   Partition table lost: %d\n",
		DetectedPct(t), SilentPct(t), t.Losses)
	return b.String()
}
