package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/devil/codegen"
	"repro/internal/kernel"
	"repro/internal/mutation"
	"repro/internal/mutation/cmut"
	"repro/internal/mutation/devilmut"
	"repro/internal/specs"
)

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

// DriverTable is the outcome histogram of Table 3 / Table 4.
type DriverTable struct {
	Driver string
	// Rows maps a row label to its mutant count.
	Counts map[string]int
	// SiteSets maps a row label to the set of sites contributing to it.
	SiteSets map[string]map[int]bool
	// TotalSites is the number of mutation sites enumerated.
	TotalSites int
	// TotalMutants is the number of mutants booted (after sampling).
	TotalMutants int
	// Enumerated is the full mutant population before sampling.
	Enumerated int
	// PartitionTableLosses counts runs that destroyed the partition table
	// (the paper's "required re-formatting the disk" anecdote).
	PartitionTableLosses int
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

// Pct returns a row's share of booted mutants.
func (t *DriverTable) Pct(row string) float64 {
	if t.TotalMutants == 0 {
		return 0
	}
	return 100 * float64(t.Counts[row]) / float64(t.TotalMutants)
}

// Sites returns the number of distinct sites contributing to a row.
func (t *DriverTable) Sites(row string) int { return len(t.SiteSets[row]) }

// DetectedPct is the paper's headline metric: mutants detected either at
// compile time or by a run-time check.
func (t *DriverTable) DetectedPct() float64 {
	if t.TotalMutants == 0 {
		return 0
	}
	return 100 * float64(t.Counts[RowCompile]+t.Counts[RowRuntime]) / float64(t.TotalMutants)
}

// SilentPct is the worst-case metric: mutants that boot with no observable
// effect.
func (t *DriverTable) SilentPct() float64 {
	if t.TotalMutants == 0 {
		return 0
	}
	return 100 * float64(t.Counts[RowBoot]) / float64(t.TotalMutants)
}

// MutationOptions configures a Table 3/4 run.
type MutationOptions struct {
	// SamplePct selects the percentage of mutants to boot (the paper used
	// 25%); 0 or 100 boots everything.
	SamplePct int
	// Seed drives the deterministic sampler.
	Seed uint64
	// Workers overrides the boot worker count (default: GOMAXPROCS).
	Workers int
	// StubMode overrides the Devil stub mode (ablation support).
	StubMode codegen.Mode
	// ForcePermissive downgrades CDevil type checking to plain C rules
	// (ablation: how much of Table 4 comes from strict typing alone).
	ForcePermissive bool
	// Backend selects the hwC execution engine (block when empty).
	Backend Backend
}

// Table3 mutates the C IDE driver and boots every (sampled) mutant.
func Table3(opts MutationOptions) (*DriverTable, error) {
	return DriverMutation("ide_c", opts)
}

// Table4 mutates the CDevil IDE driver and boots every (sampled) mutant.
func Table4(opts MutationOptions) (*DriverTable, error) {
	return DriverMutation("ide_devil", opts)
}

// DriverMutation runs the full per-driver mutation experiment (any
// embedded driver — the workload registry routes each one to its
// registered boot rig) as a one-driver campaign against an in-memory
// store, so the serial tables and the sharded, persisted
// `driverlab campaign` runs share execution and aggregation logic end
// to end.
func DriverMutation(driver string, opts MutationOptions) (*DriverTable, error) {
	return RunCampaignTable(driver, opts)
}

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

func selectMutants(n int, opts MutationOptions) []int {
	pct := opts.SamplePct
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
	return mutation.Sample(n, k, opts.Seed)
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

// FormatDriverTable renders Table 3 or 4 in the paper's layout.
func FormatDriverTable(t *DriverTable, caption string) string {
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
		"Total", t.TotalSites, t.TotalMutants, t.Enumerated)
	fmt.Fprintf(&b, "Detected (compile or run-time): %.1f%%   Silent boots: %.1f%%   Partition table lost: %d\n",
		t.DetectedPct(), t.SilentPct(), t.PartitionTableLosses)
	return b.String()
}

// SortedRows returns the row labels present in a table, presentation order
// first, for stable test output.
func (t *DriverTable) SortedRows() []string {
	var present []string
	seen := make(map[string]bool)
	for _, r := range RowOrder {
		if t.Counts[r] > 0 {
			present = append(present, r)
			seen[r] = true
		}
	}
	var extra []string
	for r := range t.Counts {
		if !seen[r] {
			extra = append(extra, r)
		}
	}
	sort.Strings(extra)
	return append(present, extra...)
}
