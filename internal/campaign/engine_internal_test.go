package campaign

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// --- store retry --------------------------------------------------------

// trivialWorkload is one driver, two mutants, fixed outcome — the
// smallest campaign that exercises the append path.
type trivialWorkload struct{}

func (trivialWorkload) Expand(spec Spec) ([]Meta, []Task, error) {
	return []Meta{{Driver: "d", Enumerated: 2, Selected: 2}},
		[]Task{{Driver: "d", Mutant: 0}, {Driver: "d", Mutant: 1}}, nil
}
func (trivialWorkload) NewWorker(Spec) (Worker, error) { return trivialWorker{}, nil }

type trivialWorker struct{}

func (trivialWorker) Boot(t Task) (Outcome, error) { return Outcome{Row: "Boot"}, nil }
func (trivialWorker) Close()                       {}

// glitchStore fails the first failures appends, then behaves.
type glitchStore struct {
	mu       sync.Mutex
	failures int
	recs     []Record
}

func (s *glitchStore) Append(r Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failures > 0 {
		s.failures--
		return errors.New("transient store glitch")
	}
	s.recs = append(s.recs, r)
	return nil
}

func (s *glitchStore) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Record(nil), s.recs...)
}

func (s *glitchStore) Close() error { return nil }

// swapSleep replaces the retry backoff sleep with a counter for the
// duration of one test, so retries are observable and instant.
func swapSleep(t *testing.T) *int {
	t.Helper()
	slept := 0
	prev := storeSleep
	storeSleep = func(time.Duration) { slept++ }
	t.Cleanup(func() { storeSleep = prev })
	return &slept
}

// TestStoreAppendRetriesTransientFailure: a store that fails twice and
// recovers must not abort the campaign — the append is retried with
// backoff and every record still lands.
func TestStoreAppendRetriesTransientFailure(t *testing.T) {
	slept := swapSleep(t)
	store := &glitchStore{failures: 2}
	sum, err := Run(Spec{Name: "r", Drivers: []string{"d"}, Seed: 1}, trivialWorkload{}, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ran != 2 {
		t.Errorf("ran = %d, want 2", sum.Ran)
	}
	if *slept != 2 {
		t.Errorf("backoff sleeps = %d, want 2 (one per transient failure)", *slept)
	}
	results := 0
	for _, r := range store.Records() {
		if r.Kind == KindResult {
			results++
		}
	}
	if results != 2 {
		t.Errorf("stored results = %d, want 2", results)
	}
}

// TestStoreAppendGivesUpAfterBackoff: a persistently failing store
// aborts the run with an error naming the attempt count, after
// exhausting the whole backoff schedule.
func TestStoreAppendGivesUpAfterBackoff(t *testing.T) {
	slept := swapSleep(t)
	store := &glitchStore{failures: 1 << 30}
	_, err := Run(Spec{Name: "r", Drivers: []string{"d"}, Seed: 1}, trivialWorkload{}, store, Options{})
	if err == nil {
		t.Fatal("persistently failing store did not abort the run")
	}
	want := fmt.Sprintf("after %d attempts", len(storeBackoff)+1)
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not report %q", err, want)
	}
	if *slept < len(storeBackoff) {
		t.Errorf("backoff sleeps = %d, want at least %d", *slept, len(storeBackoff))
	}
}

// --- metrics ------------------------------------------------------------

// TestEnabledMetricsAllocNothing: once an instrument exists — the
// warm-up call testing.AllocsPerRun makes registers it — recording into
// the enabled collector allocates nothing, so the engine's per-boot
// instrumentation is allocation-free in steady state.
func TestEnabledMetricsAllocNothing(t *testing.T) {
	m := NewMetrics(obs.New())
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"boot", func() { m.boot("ide_c", "Boot", 1234) }},
		{"skip", func() { m.skip("ide_c", "Crash") }},
		{"worker.Inc", func() { m.worker(3).Inc() }},
		{"ObserveFlush", func() { m.ObserveFlush(time.Millisecond) }},
	} {
		if allocs := testing.AllocsPerRun(100, tc.f); allocs != 0 {
			t.Errorf("%s allocates %.1f/op on the enabled collector, want 0", tc.name, allocs)
		}
	}
}

// --- expandMatrix -------------------------------------------------------

func TestExpandMatrix(t *testing.T) {
	metas := []Meta{{Driver: "a", Selected: 2}}
	tasks := []Task{
		{Driver: "a", Mutant: 0},
		{Driver: "a", Mutant: 1},
	}

	// No scenarios: exact passthrough, same slices.
	m, ts := expandMatrix(Spec{}, metas, tasks)
	if !reflect.DeepEqual(m, metas) || !reflect.DeepEqual(ts, tasks) {
		t.Error("pristine-only spec did not pass through untouched")
	}

	m, ts = expandMatrix(Spec{Scenarios: []string{"", "flaky"}}, metas, tasks)
	if len(m) != 2 || len(ts) != 4 {
		t.Fatalf("matrix sizes = %d metas / %d tasks, want 2/4", len(m), len(ts))
	}
	// Scenario-major order: the whole pristine cell, then the flaky cell.
	wantTasks := []Task{
		{Driver: "a", Mutant: 0},
		{Driver: "a", Mutant: 1},
		{Driver: "a", Mutant: 0, Scenario: "flaky"},
		{Driver: "a", Mutant: 1, Scenario: "flaky"},
	}
	if !reflect.DeepEqual(ts, wantTasks) {
		t.Errorf("matrix tasks:\ngot  %+v\nwant %+v", ts, wantTasks)
	}
	if m[0].Scenario != "" || m[1].Scenario != "flaky" {
		t.Errorf("meta scenarios = %q, %q", m[0].Scenario, m[1].Scenario)
	}
}

// TestCellKeyAndShardStability pins the compatibility contract: the
// pristine cell keeps the historical driver#mutant key (so pre-matrix
// stores resume byte-compatibly) and scenario cells extend it; sharding
// hashes the full cell key so one mutant's cells can land on different
// shards without ever crossing its pristine placement.
func TestCellKeyAndShardStability(t *testing.T) {
	pristine := Task{Driver: "ide", Mutant: 7}
	if got := pristine.Key(); got != "ide#7" {
		t.Errorf("pristine key = %q, want the historical ide#7", got)
	}
	flaky := Task{Driver: "ide", Mutant: 7, Scenario: "flaky-bus:10"}
	if got := flaky.Key(); got != "ide#7@flaky-bus:10" {
		t.Errorf("scenario key = %q", got)
	}
	if pristine.FaultSeed() == flaky.FaultSeed() {
		t.Error("fault seed ignores the scenario")
	}
	if ShardOfTask(pristine, 8) != ShardOfTask(Task{Driver: "ide", Mutant: 7}, 8) {
		t.Error("sharding is not a pure function of the task")
	}
	if CellLabel("ide", "") != "ide" || CellLabel("ide", "flaky") != "ide@flaky" {
		t.Errorf("cell labels = %q / %q", CellLabel("ide", ""), CellLabel("ide", "flaky"))
	}
}
