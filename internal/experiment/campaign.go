package experiment

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/cdriver/cincr"
	"repro/internal/devil/codegen"
	"repro/internal/drivers"
	"repro/internal/mutation/cmut"
	"repro/internal/obs"
)

// This file binds the generic campaign engine (internal/campaign) to the
// repository's drivers: how a spec expands into an enumerated, sampled
// work-list, and how one task boots. Every table — driverlab's -table
// and -ablation, and `campaign report` over a persisted store — is
// campaign.Aggregate's cells rendered by FormatDriverTable; RunTables is
// the in-memory entry point, so the serial tables and the sharded,
// persisted `driverlab campaign` runs share every line of execution and
// aggregation logic.

func stubModeFromName(name string) (codegen.Mode, error) {
	switch name {
	case "", "debug":
		return codegen.Debug, nil
	case "production":
		return codegen.Production, nil
	default:
		return 0, fmt.Errorf("unknown stub mode %q", name)
	}
}

// driverPlan is the cached enumeration of one driver: computed once per
// workload and shared (read-only) by Expand and every worker.
type driverPlan struct {
	src drivers.Source
	res *cmut.Result
	// incr is the span analysis of the pristine stream — the shared half
	// of the incremental front end every boot goes through.
	incr *cincr.Source
}

// workload implements campaign.Workload over the embedded driver corpus.
type workload struct {
	mu    sync.Mutex
	plans map[string]*driverPlan
	// col, when non-nil, makes every worker record boot-pipeline phase
	// spans and fallback counters into it.
	col *obs.Collector
}

// NewWorkload returns the campaign workload that enumerates and boots
// this repository's embedded drivers, routing every driver to its
// workload's boot rig (with per-worker rig reuse).
func NewWorkload() campaign.Workload {
	return &workload{plans: make(map[string]*driverPlan)}
}

// NewObservedWorkload is NewWorkload with boot-pipeline instrumentation:
// every worker's rigs record per-phase spans (respan, check, compile,
// execute, classify) and fallback counters into col. A nil collector
// yields the uninstrumented workload.
func NewObservedWorkload(col *obs.Collector) campaign.Workload {
	return &workload{plans: make(map[string]*driverPlan), col: col}
}

// plan returns (building on first use) the enumeration of one driver.
func (w *workload) plan(driver string) (*driverPlan, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if p, ok := w.plans[driver]; ok {
		return p, nil
	}
	src, err := drivers.Load(driver)
	if err != nil {
		return nil, err
	}
	desc, err := WorkloadFor(driver)
	if err != nil {
		return nil, err
	}
	toks, err := ParseDriver(src.Text)
	if err != nil {
		return nil, err
	}
	var iface *codegen.Interface
	if src.Devil {
		// The stub interface feeds the identifier-mutation pools.
		iface, err = desc.Interface()
		if err != nil {
			return nil, err
		}
	}
	res, err := cmut.Enumerate(toks, cmut.Options{Interface: iface})
	if err != nil {
		return nil, fmt.Errorf("driver %s: %w", driver, err)
	}
	incr, err := cincr.Analyze(res.Tokens)
	if err != nil {
		return nil, fmt.Errorf("driver %s: span analysis: %w", driver, err)
	}
	p := &driverPlan{src: src, res: res, incr: incr}
	w.plans[driver] = p
	return p, nil
}

// Expand implements campaign.Workload.
func (w *workload) Expand(spec campaign.Spec) ([]campaign.Meta, []campaign.Task, error) {
	if _, err := stubModeFromName(spec.StubMode); err != nil {
		return nil, nil, err
	}
	if _, err := ParseBackend(spec.Backend); err != nil {
		return nil, nil, err
	}
	if spec.SamplePct < 0 || spec.SamplePct > 100 {
		return nil, nil, fmt.Errorf("sample %d%% out of range (want 0..100; 0 boots every mutant)", spec.SamplePct)
	}
	// An empty list would run an empty campaign; a repeated driver would
	// boot each of its mutants twice under keys that collide in the store.
	if len(spec.Drivers) == 0 {
		return nil, nil, fmt.Errorf("no drivers listed")
	}
	listed := make(map[string]bool, len(spec.Drivers))
	for _, driver := range spec.Drivers {
		if listed[driver] {
			return nil, nil, fmt.Errorf("driver %s listed twice", driver)
		}
		listed[driver] = true
	}
	// Validate every scenario cell up front (the engine crosses the
	// work-list with them after Expand): a misspelled scenario fails the
	// campaign before any rig is assembled, and two spellings of one
	// cell ("timing" and "timing:8") would boot every mutant twice.
	type cell struct {
		sc *ScenarioDesc
		n  int
	}
	cells := make(map[cell]string)
	for _, name := range spec.Normalized().Scenarios {
		if name == "" {
			name = "pristine"
		}
		sc, n, err := parseScenario(name)
		if err != nil {
			return nil, nil, err
		}
		if prev, ok := cells[cell{sc, n}]; ok {
			return nil, nil, fmt.Errorf("scenarios %q and %q name the same cell", prev, name)
		}
		cells[cell{sc, n}] = name
	}
	var metas []campaign.Meta
	var tasks []campaign.Task
	for _, driver := range spec.Drivers {
		p, err := w.plan(driver)
		if err != nil {
			return nil, nil, err
		}
		selected := selectMutants(len(p.res.Mutants), spec.SamplePct, spec.Seed)
		metas = append(metas, campaign.Meta{
			Driver:     driver,
			Sites:      len(p.res.Sites),
			Enumerated: len(p.res.Mutants),
			Selected:   len(selected),
		})
		for _, id := range selected {
			tasks = append(tasks, campaign.Task{Driver: driver, Mutant: id})
		}
	}
	return metas, tasks, nil
}

// NewWorker implements campaign.Workload.
func (w *workload) NewWorker(spec campaign.Spec) (campaign.Worker, error) {
	mode, err := stubModeFromName(spec.StubMode)
	if err != nil {
		return nil, err
	}
	backend, err := ParseBackend(spec.Backend)
	if err != nil {
		return nil, err
	}
	return &worker{w: w, spec: spec, mode: mode, backend: backend,
		rigs: make(rigSet), obs: make(map[string]*bootObs)}, nil
}

// worker boots tasks on a single goroutine, reusing one rig per
// workload — looked up in the workload table, Reset instead of rebuilt
// between boots. The mutated token stream is never materialised: the
// boot input is the shared pristine span analysis plus one replacement
// token, and only the declaration containing it re-runs the
// parse-check-compile chain (the rig falls back to the full pipeline
// for span-unsafe mutants).
type worker struct {
	w       *workload
	spec    campaign.Spec
	mode    codegen.Mode
	backend Backend
	rigs    rigSet
	// obs caches the per-workload instrumentation bundles bound to the
	// workload's collector (unused when the workload is unobserved).
	obs map[string]*bootObs
	// mut is the reused Mutation cell of the incremental boot input.
	mut cincr.Mutation
}

// Boot implements campaign.Worker.
func (wk *worker) Boot(t campaign.Task) (campaign.Outcome, error) {
	_, out, err := wk.boot(t)
	return out, err
}

// boot boots task t and returns its result with the outcome Boot
// records. A harness-level failure of the rig comes back as a crash
// outcome without a result, as the in-memory path always classified it.
func (wk *worker) boot(t campaign.Task) (*BootResult, campaign.Outcome, error) {
	input, p, err := wk.input(t)
	if err != nil {
		return nil, campaign.Outcome{}, err
	}
	m := p.res.Mutants[t.Mutant]
	rig, err := wk.rigs.rigFor(t.Driver, t.Scenario)
	if err != nil {
		return nil, campaign.Outcome{}, err
	}
	if wk.w.col != nil {
		o, ok := wk.obs[rig.Desc.Name]
		if !ok {
			o = newBootObs(wk.w.col, rig.Desc.Name)
			wk.obs[rig.Desc.Name] = o
		}
		rig.caches.obs = o
	}
	br, err := rig.Boot(input)
	if err != nil {
		return nil, campaign.Outcome{Row: RowCrash, Site: m.SiteIndex}, nil
	}
	return br, campaign.Outcome{
		Row:   classifyRow(br, p.res.Sites[m.SiteIndex]),
		Site:  m.SiteIndex,
		Lost:  br.PartitionTableLost,
		Steps: br.Steps,
	}, nil
}

// input builds task t's boot input: the driver's pristine span analysis
// with the mutant's one replacement token, in the worker's reused
// Mutation cell. It returns the driver's plan alongside.
func (wk *worker) input(t campaign.Task) (BootInput, *driverPlan, error) {
	p, err := wk.w.plan(t.Driver)
	if err != nil {
		return BootInput{}, nil, err
	}
	if t.Mutant < 0 || t.Mutant >= len(p.res.Mutants) {
		return BootInput{}, nil, fmt.Errorf("driver %s: mutant %d outside enumeration (%d mutants)",
			t.Driver, t.Mutant, len(p.res.Mutants))
	}
	m := p.res.Mutants[t.Mutant]
	wk.mut = cincr.Mutation{Src: p.incr, Index: m.TokenIndex, Replacement: m.Replacement}
	input := BootInput{
		Devil:      p.src.Devil,
		StubMode:   wk.mode,
		Permissive: wk.spec.Permissive,
		Budget:     ExperimentBudget,
		Backend:    wk.backend,
		FaultSeed:  t.FaultSeed(),
		WallBudget: DefaultBootWallBudget,
		Mutation:   &wk.mut,
	}
	if wk.spec.BootTimeoutMS > 0 {
		input.WallBudget = time.Duration(wk.spec.BootTimeoutMS) * time.Millisecond
	}
	return input, p, nil
}

// Close implements campaign.Worker: the heavyweight rigs are released,
// but the pool stays usable — a Boot after Close rebuilds its rig.
func (wk *worker) Close() { wk.rigs = make(rigSet) }

// RunTables runs one campaign over spec's drivers against an in-memory
// store on workers boot workers (0: GOMAXPROCS) and returns its
// aggregated cells, keyed by cell label (the bare driver name for the
// pristine cell).
func RunTables(spec campaign.Spec, workers int) (map[string]*campaign.TableData, error) {
	store := campaign.NewMemStore()
	if _, err := campaign.Run(spec, NewWorkload(), store, campaign.Options{Workers: workers}); err != nil {
		return nil, err
	}
	tables, _, err := campaign.Aggregate(store.Records())
	return tables, err
}
