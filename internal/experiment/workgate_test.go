// The race runtime instruments allocations, so the counts this gate pins
// only hold in a plain build.

//go:build !race

package experiment

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/drivers"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/workgate.json")

const workGatePath = "testdata/workgate.json"

// workGateTolerance bounds the allocation and byte drift per driver, as
// a fraction of the baseline: the allocs_per_boot and bytes_per_boot
// bounds of the benchmark of record.
const workGateTolerance = 0.02

// workRow is one driver's deterministic work over the gate's sample:
// one plain and one observed worker each boot every task twice, once
// as testing.AllocsPerRun's warm-up and once measured.
type workRow struct {
	Driver string `json:"driver"`
	// Scenario is the hardware scenario of a faulted row, empty for a
	// pristine one.
	Scenario string `json:"scenario,omitempty"`
	Tasks    int    `json:"tasks"`
	// Allocs sums the measured boots' allocations.
	Allocs uint64 `json:"allocs"`
	// Bytes sums the bytes allocated over each task's warm-up and
	// measured boot.
	Bytes uint64 `json:"bytes"`
	// Steps sums the measured boots' watchdog steps.
	Steps int64 `json:"steps"`
	// PortAccesses counts every bus access of the plain worker's rig.
	PortAccesses uint64 `json:"port_accesses"`
	// Forwarded sums the measured boots' steps that the loop kernels and
	// block stubs fast-forwarded over predicted reads.
	Forwarded int64 `json:"forwarded"`
	// Drops, Dups and Stales sum the faults the injector made over the
	// measured boots of a faulted row.
	Drops  uint64 `json:"drops,omitempty"`
	Dups   uint64 `json:"dups,omitempty"`
	Stales uint64 `json:"stales,omitempty"`
	// Counters holds the observed worker's block-backend and fallback
	// counter totals, keyed by metric family.
	Counters map[string]uint64 `json:"counters"`
}

// workCounters are the boot-pipeline families the gate pins exactly:
// a fast path that quietly stops firing moves one of them.
var workCounters = []string{
	MetricBlocksCompiled, MetricBlocksFusedStmts, MetricIOSitesFused, MetricIOSitesGeneric,
	MetricSuperblocksCompiled, MetricSuperblockStmts, MetricFullFrontend,
	MetricLoopKernels,
}

// key names a row: its driver, and its scenario after an @.
func (r workRow) key() string {
	if r.Scenario == "" {
		return r.Driver
	}
	return r.Driver + "@" + r.Scenario
}

// TestWorkGate pins each driver's per-boot work against
// testdata/workgate.json, on pristine hardware and, for each C driver,
// under the flaky-bus injector at its default rate: allocations and
// bytes within workGateTolerance, and exactly the steps, fast-forwarded
// steps, injected faults, port accesses and block-backend counters. It also requires the enabled
// metric collector to add zero allocations to every task's boot. Unlike
// wall-clock throughput, every one of these is a function of the code
// alone. Run with -update after an intended change: it rewrites only
// the rows that fail a check, and keeps the others as they are.
func TestWorkGate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Garbage collection runs only between tasks (see measureWork), so
	// no sync.Pool drain lands inside a measured boot.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	var got []workRow
	for _, driver := range drivers.Names() {
		got = append(got, measureWork(t, driver, ""))
	}
	for _, driver := range drivers.Names() {
		if strings.HasSuffix(driver, "_c") {
			got = append(got, measureWork(t, driver, "flaky-bus"))
		}
	}
	var base []workRow
	data, err := os.ReadFile(workGatePath)
	if err == nil {
		err = json.Unmarshal(data, &base)
	}
	if err != nil && !*update {
		t.Fatalf("%v (run with -update to write the baseline)", err)
	}
	want := make(map[string]workRow, len(base))
	for _, r := range base {
		want[r.key()] = r
	}
	rows := make([]workRow, 0, len(got))
	for _, g := range got {
		w, ok := want[g.key()]
		fails := []string{"no baseline row"}
		if ok {
			fails = workDiff(g, w)
		}
		switch {
		case len(fails) == 0:
			rows = append(rows, w)
		case *update:
			// Only a failing row takes fresh values: the others keep
			// their baseline bytes, so the diff shows what moved.
			t.Logf("%s: rewritten: %s", g.key(), strings.Join(fails, "; "))
			rows = append(rows, g)
		default:
			for _, f := range fails {
				t.Errorf("%s: %s", g.key(), f)
			}
		}
	}
	if *update {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workGatePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// workDiff lists the checks a driver's measured row g fails against
// its baseline row w.
func workDiff(g, w workRow) []string {
	if g.Tasks != w.Tasks {
		return []string{fmt.Sprintf("%d tasks, baseline %d", g.Tasks, w.Tasks)}
	}
	var fails []string
	for _, m := range []struct {
		name      string
		got, want uint64
	}{{"allocs", g.Allocs, w.Allocs}, {"bytes", g.Bytes, w.Bytes}} {
		if drift := float64(m.got)/float64(m.want) - 1; drift > workGateTolerance || drift < -workGateTolerance {
			fails = append(fails, fmt.Sprintf("%s %d, baseline %d (%+.1f%%, bound ±%.0f%%)",
				m.name, m.got, m.want, 100*drift, 100*workGateTolerance))
		}
	}
	if g.Steps != w.Steps {
		fails = append(fails, fmt.Sprintf("%d steps, baseline %d", g.Steps, w.Steps))
	}
	if g.Forwarded != w.Forwarded {
		fails = append(fails, fmt.Sprintf("%d steps fast-forwarded, baseline %d", g.Forwarded, w.Forwarded))
	}
	if g.Drops != w.Drops || g.Dups != w.Dups || g.Stales != w.Stales {
		fails = append(fails, fmt.Sprintf("%d/%d/%d drops/dups/stales injected, baseline %d/%d/%d",
			g.Drops, g.Dups, g.Stales, w.Drops, w.Dups, w.Stales))
	}
	if g.PortAccesses != w.PortAccesses {
		fails = append(fails, fmt.Sprintf("%d port accesses, baseline %d", g.PortAccesses, w.PortAccesses))
	}
	if !reflect.DeepEqual(g.Counters, w.Counters) {
		fails = append(fails, fmt.Sprintf("counters %v, baseline %v", g.Counters, w.Counters))
	}
	return fails
}

// measureWork boots every task of driver's 5% gate sample, under
// scenario when it is not empty, on a plain and on an observed worker,
// one testing.AllocsPerRun each.
func measureWork(t *testing.T, driver, scenario string) workRow {
	t.Helper()
	spec := campaign.Spec{Drivers: []string{driver}, SamplePct: 5, Seed: 2001}
	if scenario != "" {
		spec.Scenarios = []string{scenario}
	}
	col := obs.New()
	plainWL := NewWorkload()
	_, tasks, err := campaign.ExpandPlan(spec, plainWL)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := plainWL.NewWorker(spec)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := NewObservedWorkload(col).NewWorker(spec)
	if err != nil {
		t.Fatal(err)
	}
	// A second plain/observed pair re-measures a task whose two readings
	// differ, so retries leave the gate's own rigs and counters as they are.
	retryPlain, err := NewWorkload().NewWorker(spec)
	if err != nil {
		t.Fatal(err)
	}
	retryObserved, err := NewObservedWorkload(obs.New()).NewWorker(spec)
	if err != nil {
		t.Fatal(err)
	}
	row := workRow{Driver: driver, Scenario: scenario, Tasks: len(tasks), Counters: make(map[string]uint64)}
	var ms runtime.MemStats
	for _, task := range tasks {
		var out campaign.Outcome
		boot := func(wk campaign.Worker) func() {
			return func() {
				if out, err = wk.Boot(task); err != nil {
					t.Fatalf("%s %s mutant %d: %v", driver, scenario, task.Mutant, err)
				}
			}
		}
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > 64<<20 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
		}
		before := ms.TotalAlloc
		allocs := testing.AllocsPerRun(1, boot(plain))
		runtime.ReadMemStats(&ms)
		row.Bytes += ms.TotalAlloc - before
		row.Allocs += uint64(allocs)
		steps := out.Steps
		row.Steps += steps
		row.Forwarded += rigForwarded(plain)
		for _, r := range plain.(*worker).rigs {
			if r.Injector != nil {
				drops, dups, stales := r.Injector.Stats()
				row.Drops += drops
				row.Dups += dups
				row.Stales += stales
			}
		}

		obsAllocs := testing.AllocsPerRun(1, boot(observed))
		if out.Steps != steps {
			t.Errorf("%s mutant %d: %d steps with the collector enabled, %d without",
				row.key(), task.Mutant, out.Steps, steps)
		}
		// The runtime fills its type-assertion caches on a random 1 in
		// 1024 of misses (errors.As in kernel.Classify takes that path),
		// so either side may read one allocation high on a given run. A
		// collector that really allocates differs on every retry.
		for retry := 0; retry < 3 && obsAllocs != allocs; retry++ {
			allocs = testing.AllocsPerRun(1, boot(retryPlain))
			obsAllocs = testing.AllocsPerRun(1, boot(retryObserved))
		}
		if obsAllocs != allocs {
			t.Errorf("%s mutant %d: %v allocs with the collector enabled, %v without",
				row.key(), task.Mutant, obsAllocs, allocs)
		}
	}
	row.PortAccesses = rigAccesses(plain)
	if got := rigAccesses(observed); got != row.PortAccesses {
		t.Errorf("%s: %d port accesses with the collector enabled, %d without", row.key(), got, row.PortAccesses)
	}
	for _, s := range col.Gather() {
		for _, name := range workCounters {
			if s.Name == name {
				row.Counters[name] += uint64(s.Value)
			}
		}
	}
	return row
}

// rigForwarded is the fast-forwarded steps of the last boot of a worker
// that boots one driver, on its one rig.
func rigForwarded(wk campaign.Worker) int64 {
	var n int64
	for _, r := range wk.(*worker).rigs {
		n += r.Kern.Forwarded()
	}
	return n
}

// rigAccesses totals the bus accesses of every rig a worker assembled.
func rigAccesses(wk campaign.Worker) uint64 {
	var n uint64
	for _, r := range wk.(*worker).rigs {
		accesses, _ := r.Bus.Stats()
		n += accesses
	}
	return n
}
