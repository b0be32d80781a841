package campaign

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Outcome is a worker's classification of one booted mutant.
type Outcome struct {
	// Row is the Table 3/4 row label the boot landed in.
	Row string
	// Site is the mutation-site index the mutant belongs to.
	Site int
	// Lost reports partition-table destruction (the paper's anecdote).
	Lost bool
	// Steps is the watchdog step count the boot consumed.
	Steps int64
}

// Worker executes tasks. A worker is owned by exactly one pool goroutine,
// so implementations can keep heavyweight per-worker state — notably a
// simulated machine that is Reset between boots instead of rebuilt.
type Worker interface {
	Boot(Task) (Outcome, error)
	Close()
}

// Workload binds the engine to a concrete experiment: how a spec expands
// into tasks, and how one task boots.
type Workload interface {
	// Expand deterministically derives the per-driver metadata and the
	// full selected work-list, in enumeration order, shards unassigned.
	Expand(Spec) ([]Meta, []Task, error)
	// NewWorker builds one worker. Called once per pool goroutine.
	NewWorker(Spec) (Worker, error)
}

// Options tunes one engine run.
type Options struct {
	// Workers is the pool size (default: GOMAXPROCS).
	Workers int
	// Shards selects which shard indices to run; nil means all of them.
	// Tasks of unselected shards are neither run nor counted in Total.
	Shards []int
	// Metrics, when non-nil, receives boot/outcome/store-latency
	// instrumentation. The disabled (nil) bundle costs nothing.
	Metrics *Metrics
	// Status, when non-nil, accumulates the live progress the /status
	// endpoint and the CLI's progress line render from its snapshots.
	Status *StatusTracker
	// Interrupt, when non-nil, stops feeding new tasks once it is
	// closed; in-flight boots finish and are recorded, then Run
	// returns ErrInterrupted. The store is left consistent, so a
	// subsequent Run resumes exactly where this one stopped.
	Interrupt <-chan struct{}
}

// ErrInterrupted reports that Run stopped early because Options.
// Interrupt was closed. The Summary alongside it is valid, and the
// campaign resumes by re-running the same spec against the same store.
var ErrInterrupted = errors.New("campaign interrupted")

// Summary counts what one Run did. The outcomes themselves are the
// store's result records.
type Summary struct {
	// Total is the number of selected tasks (after shard filtering).
	Total int
	// Skipped is how many of them the store already held (resume).
	Skipped int
	// Ran is how many booted in this run.
	Ran int
	// Panics is how many boots the harness panicked on; each was
	// recovered, recorded as RowHarnessPanic and quarantined.
	Panics int
}

// expandMatrix crosses a workload's pristine expansion with the spec's
// scenario list: one meta and one copy of every task per scenario cell.
// A spec without scenarios passes through untouched, so pre-matrix
// campaigns keep their exact work-list.
func expandMatrix(spec Spec, metas []Meta, tasks []Task) ([]Meta, []Task) {
	if len(spec.Scenarios) == 0 {
		return metas, tasks
	}
	outM := make([]Meta, 0, len(metas)*len(spec.Scenarios))
	outT := make([]Task, 0, len(tasks)*len(spec.Scenarios))
	for _, sc := range spec.Scenarios {
		for _, m := range metas {
			m.Scenario = sc
			outM = append(outM, m)
		}
		for _, t := range tasks {
			t.Scenario = sc
			outT = append(outT, t)
		}
	}
	return outM, outT
}

// Transient store append/flush failures (an NFS hiccup, a momentary
// ENOSPC) are retried with exponential backoff before they abort the
// campaign; storeSleep is swapped out by tests.
var (
	storeBackoff = []time.Duration{5 * time.Millisecond, 25 * time.Millisecond, 125 * time.Millisecond}
	storeSleep   = time.Sleep
)

// bootSafely runs one boot with a recover() fence: a panic anywhere in
// the worker's boot path (workload hooks, sims, backends) comes back as
// the panic's text instead of unwinding the pool. The campaign records
// it as a quarantined RowHarnessPanic outcome and keeps going — one sick
// mutant must not kill a fault-heavy run.
func bootSafely(w Worker, t Task) (out Outcome, err error, panicMsg string) {
	defer func() {
		if r := recover(); r != nil {
			panicMsg = fmt.Sprint(r)
			if panicMsg == "" {
				panicMsg = "panic with empty message"
			}
		}
	}()
	out, err = w.Boot(t)
	return out, err, ""
}

// Run executes a campaign: expand, reconcile the store (Reconcile),
// shard, skip already-stored results, boot the remainder on a worker
// pool, and append every outcome to the store. Run is idempotent —
// rerunning a completed campaign boots nothing — and crash-safe:
// killing it mid-run loses at most one record, and the next Run picks
// up where the store ends.
func Run(spec Spec, wl Workload, store Store, opts Options) (*Summary, error) {
	spec = spec.Normalized()
	fp := spec.Fingerprint()
	if spec.FlushEvery > 0 {
		if fs, ok := store.(interface{ SetFlushEvery(int) }); ok {
			fs.SetFlushEvery(spec.FlushEvery)
		}
	}

	// put is the instrumented, retrying append: with metrics enabled
	// every store append is timed and FileStore checkpoints report their
	// flush latency through the hook; a failing append is retried with
	// backoff before it aborts the campaign. A retried append can leave
	// a duplicate record behind a partially-flushed failure — harmless,
	// since aggregation and resume are first-record-wins.
	base := store.Append
	if opts.Metrics != nil {
		base = func(r Record) error {
			t := opts.Metrics.appendH.Start()
			err := store.Append(r)
			t.Stop()
			return err
		}
		if fs, ok := store.(interface{ SetFlushHook(func(time.Duration)) }); ok {
			fs.SetFlushHook(opts.Metrics.ObserveFlush)
		}
	}
	put := func(r Record) error {
		err := base(r)
		for attempt := 0; err != nil && attempt < len(storeBackoff); attempt++ {
			storeSleep(storeBackoff[attempt])
			opts.Metrics.retry()
			err = base(r)
		}
		if err != nil {
			return fmt.Errorf("store append failed after %d attempts: %w",
				len(storeBackoff)+1, err)
		}
		return nil
	}

	wantShard := func(int) bool { return true }
	if opts.Shards != nil {
		sel := make(map[int]bool, len(opts.Shards))
		for _, sh := range opts.Shards {
			if sh < 0 || sh >= spec.Shards {
				return nil, fmt.Errorf("campaign: shard %d outside [0..%d)", sh, spec.Shards)
			}
			sel[sh] = true
		}
		wantShard = func(sh int) bool { return sel[sh] }
	}

	metas, tasks, err := ExpandPlan(spec, wl)
	if err != nil {
		return nil, err
	}
	stored, err := Reconcile(spec, metas, store, put)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.Status != nil {
		opts.Status.Begin(spec.Name, fp, workers)
	}

	sum := &Summary{}

	var pending []Task
	for _, t := range tasks {
		if !wantShard(t.Shard) {
			continue
		}
		sum.Total++
		cell := CellLabel(t.Driver, t.Scenario)
		if opts.Status != nil {
			opts.Status.Plan(cell, t.Shard)
		}
		if r, ok := stored[t.Key()]; ok {
			sum.Skipped++
			opts.Metrics.skip(cell, r.Row)
			if opts.Status != nil {
				opts.Status.Record(cell, t.Shard, r.Row, RecordSkip)
			}
			continue
		}
		pending = append(pending, t)
	}
	if len(pending) == 0 {
		return sum, nil
	}

	if workers > len(pending) {
		workers = len(pending)
	}

	var (
		mu       sync.Mutex // guards sum and firstErr
		firstErr error
		stopped  atomic.Bool // aborts the feed after the first error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stopped.Store(true)
	}
	feed := make(chan Task)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			w, err := wl.NewWorker(spec)
			if err != nil {
				fail(err)
				for range feed {
				} // drain
				return
			}
			// Closure, not a bound method: w is reassigned when a panic
			// quarantine rebuilds the worker, and nil when the rebuild
			// itself failed.
			defer func() {
				if w != nil {
					w.Close()
				}
			}()
			workerBoots := opts.Metrics.worker(worker)
			for t := range feed {
				if stopped.Load() {
					continue // drain: the campaign is aborting
				}
				cell := CellLabel(t.Driver, t.Scenario)
				out, err, panicMsg := bootSafely(w, t)
				panicked := panicMsg != ""
				if panicked {
					// Quarantine: record the panic as the mutant's outcome and
					// replace the worker — an unwound boot leaves its rigs in
					// an unknown state, and the next mutant deserves a clean
					// machine.
					out = Outcome{Row: RowHarnessPanic}
					opts.Metrics.panicked(cell)
					w.Close()
					if w, err = wl.NewWorker(spec); err != nil {
						w = nil
						fail(fmt.Errorf("campaign: worker rebuild after harness panic (%s): %w",
							panicMsg, err))
						continue
					}
				} else if err != nil {
					fail(err)
					continue
				}
				rec := Record{Kind: KindResult, Driver: t.Driver, Mutant: t.Mutant,
					Scenario: t.Scenario, Site: out.Site, Row: out.Row, Lost: out.Lost,
					Steps: out.Steps, Shard: t.Shard,
					HarnessPanic: panicked, Panic: panicMsg}
				if err := put(rec); err != nil {
					fail(fmt.Errorf("campaign: %w", err))
					continue
				}
				kind := RecordRan
				if panicked {
					kind = RecordPanic
				} else {
					opts.Metrics.boot(cell, out.Row, out.Steps)
					workerBoots.Inc()
				}
				if opts.Status != nil {
					opts.Status.Record(cell, t.Shard, out.Row, kind)
				}
				mu.Lock()
				if panicked {
					sum.Panics++
				} else {
					sum.Ran++
				}
				mu.Unlock()
			}
		}(i)
	}
	var interrupted bool
feedLoop:
	for _, t := range pending {
		if stopped.Load() {
			break
		}
		select {
		case feed <- t:
		case <-opts.Interrupt:
			// A nil Interrupt channel never selects; a closed one stops
			// the feed. Queued workers finish their in-flight boots.
			interrupted = true
			break feedLoop
		}
	}
	close(feed)
	wg.Wait()
	if firstErr != nil {
		return sum, firstErr
	}
	if interrupted {
		return sum, ErrInterrupted
	}
	return sum, nil
}

// Reconcile is the one resume scan of a campaign store, shared by Run
// and the fleet coordinator. It refuses a store whose spec record has
// another fingerprint than spec's, appends through put the spec record
// if the store lacks it and the meta record of every cell of metas the
// store lacks, and returns the first stored result record per task key
// (first-record-wins, as in aggregation). Its errors carry no package
// prefix; each caller adds its own.
func Reconcile(spec Spec, metas []Meta, store Store, put func(Record) error) (map[string]Record, error) {
	fp := spec.Fingerprint()
	stored := make(map[string]Record)
	haveSpec := false
	haveMeta := make(map[string]bool)
	for _, r := range store.Records() {
		switch r.Kind {
		case KindSpec:
			if r.Fingerprint != fp {
				return nil, fmt.Errorf("store belongs to a different spec (fingerprint %s, want %s)",
					r.Fingerprint, fp)
			}
			haveSpec = true
		case KindMeta:
			haveMeta[CellLabel(r.Driver, r.Scenario)] = true
		case KindResult:
			key := r.Key()
			if _, dup := stored[key]; !dup {
				stored[key] = r
			}
		}
	}
	if !haveSpec {
		if err := put(SpecRecord(spec)); err != nil {
			return nil, err
		}
	}
	for _, m := range metas {
		if !haveMeta[CellLabel(m.Driver, m.Scenario)] {
			if err := put(MetaRecord(m)); err != nil {
				return nil, err
			}
		}
	}
	return stored, nil
}

// ExpandPlan derives a spec's complete work plan: the workload's
// pristine expansion crossed with the scenario matrix, every task
// carrying its shard assignment. This is exactly the work-list Run
// executes — exported so a fleet coordinator can partition the same
// plan into leases without running a single boot itself.
func ExpandPlan(spec Spec, wl Workload) ([]Meta, []Task, error) {
	spec = spec.Normalized()
	metas, tasks, err := wl.Expand(spec)
	if err != nil {
		return nil, nil, err
	}
	metas, tasks = expandMatrix(spec, metas, tasks)
	for i := range tasks {
		tasks[i].Shard = ShardOfTask(tasks[i], spec.Shards)
	}
	return metas, tasks, nil
}

// ParallelDo runs fn over [0,n) with a bounded worker pool and waits —
// the generic fan-out primitive the experiment package's in-memory loops
// delegate to.
func ParallelDo(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
