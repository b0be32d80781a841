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
// work-list, and how one task boots. The in-memory table entry points
// (Table3/Table4/MouseMutation) are thin wrappers that run a one-driver
// campaign against an in-memory store, so the serial paths and the
// sharded, persisted `driverlab campaign` paths share every line of
// execution logic and aggregate to identical tables.

// CampaignSpec translates the historical MutationOptions form into a
// one-driver campaign spec.
func CampaignSpec(driver string, opts MutationOptions) campaign.Spec {
	return campaign.Spec{
		Name:       "inline",
		Drivers:    []string{driver},
		SamplePct:  opts.SamplePct,
		Seed:       opts.Seed,
		StubMode:   stubModeName(opts.StubMode),
		Permissive: opts.ForcePermissive,
		Budget:     ExperimentBudget,
		Backend:    string(opts.Backend),
	}
}

func stubModeName(m codegen.Mode) string {
	switch m {
	case codegen.Production:
		return "production"
	case codegen.Debug:
		return "debug"
	default:
		return ""
	}
}

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

// TableFromCampaign renders aggregated campaign data as the DriverTable
// the paper's formatting works on. TotalMutants is the selected
// population of the spec, so a partial store renders with its gaps
// visible rather than silently rescaled.
func TableFromCampaign(d *campaign.TableData) *DriverTable {
	return &DriverTable{
		Driver:               d.Driver,
		Counts:               d.Counts,
		SiteSets:             d.SiteSets,
		TotalSites:           d.TotalSites,
		TotalMutants:         d.Selected,
		Enumerated:           d.Enumerated,
		PartitionTableLosses: d.Losses,
	}
}

// driverPlan is the cached enumeration of one driver: computed once per
// workload and shared (read-only) by Expand and every worker.
type driverPlan struct {
	src drivers.Source
	res *cmut.Result
	// incr is the span analysis of the pristine stream — the shared half
	// of the incremental front end (nil when the source is outside the
	// splitter's shape; workers then use the full pipeline).
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
// registered boot rig (with per-worker rig reuse) through the workload
// registry.
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
	p := &driverPlan{src: src, res: res}
	if incr, err := cincr.Analyze(res.Tokens); err == nil {
		p.incr = incr
	}
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
	if _, err := ParseFrontend(spec.Frontend); err != nil {
		return nil, nil, err
	}
	if spec.SamplePct < 0 || spec.SamplePct > 100 {
		return nil, nil, fmt.Errorf("sample %d%% out of range (want 0..100; 0 boots every mutant)", spec.SamplePct)
	}
	// Validate every scenario cell up front (the engine crosses the
	// work-list with them after Expand): a misspelled scenario fails the
	// campaign before any rig is assembled.
	for _, sc := range spec.Normalized().Scenarios {
		if sc == "" {
			continue
		}
		if err := CheckScenario(sc); err != nil {
			return nil, nil, err
		}
	}
	var metas []campaign.Meta
	var tasks []campaign.Task
	for _, driver := range spec.Drivers {
		p, err := w.plan(driver)
		if err != nil {
			return nil, nil, err
		}
		selected := selectMutants(len(p.res.Mutants), MutationOptions{
			SamplePct: spec.SamplePct, Seed: spec.Seed,
		})
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
	frontend, err := ParseFrontend(spec.Frontend)
	if err != nil {
		return nil, err
	}
	return &worker{w: w, spec: spec, mode: mode, backend: backend,
		frontend: frontend, rigs: make(rigSet), obs: make(map[string]*bootObs)}, nil
}

// worker boots tasks on a single goroutine, reusing one rig per
// workload — looked up through the registry, Reset instead of rebuilt
// between boots. With the incremental front end (the default)
// per-mutant work shrinks further: the mutated token stream is never
// materialised — the boot input is the shared pristine span analysis
// plus one replacement token, and only the declaration containing it
// re-runs the parse-check-compile chain.
type worker struct {
	w        *workload
	spec     campaign.Spec
	mode     codegen.Mode
	backend  Backend
	frontend Frontend
	rigs     rigSet
	// obs caches the per-workload instrumentation bundles bound to the
	// workload's collector (unused when the workload is unobserved).
	obs map[string]*bootObs
	// mut is the reused Mutation cell of the incremental boot input.
	mut cincr.Mutation
}

// Boot implements campaign.Worker.
func (wk *worker) Boot(t campaign.Task) (campaign.Outcome, error) {
	p, err := wk.w.plan(t.Driver)
	if err != nil {
		return campaign.Outcome{}, err
	}
	if t.Mutant < 0 || t.Mutant >= len(p.res.Mutants) {
		return campaign.Outcome{}, fmt.Errorf("driver %s: mutant %d outside enumeration (%d mutants)",
			t.Driver, t.Mutant, len(p.res.Mutants))
	}
	m := p.res.Mutants[t.Mutant]
	site := p.res.Sites[m.SiteIndex]
	input := BootInput{
		Devil:      p.src.Devil,
		StubMode:   wk.mode,
		Permissive: wk.spec.Permissive,
		Budget:     wk.spec.Budget,
		Backend:    wk.backend,
		FaultSeed:  t.FaultSeed(),
		WallBudget: DefaultBootWallBudget,
	}
	if wk.spec.BootTimeoutMS > 0 {
		input.WallBudget = time.Duration(wk.spec.BootTimeoutMS) * time.Millisecond
	}
	if wk.frontend == FrontendIncremental && p.incr != nil {
		wk.mut = cincr.Mutation{Src: p.incr, Index: m.TokenIndex, Replacement: m.Replacement}
		input.Mutation = &wk.mut
	} else {
		input.Tokens = p.res.Apply(m)
	}
	if input.Budget == 0 {
		input.Budget = ExperimentBudget
	}

	rig, err := wk.rigs.rigFor(t.Driver, t.Scenario)
	if err != nil {
		return campaign.Outcome{}, err
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
		// Harness-level failure: classified as a crash, like the in-memory
		// path always has.
		return campaign.Outcome{Row: RowCrash, Site: m.SiteIndex}, nil
	}
	return campaign.Outcome{
		Row:   classifyRow(br, site),
		Site:  m.SiteIndex,
		Lost:  br.PartitionTableLost,
		Steps: br.Steps,
	}, nil
}

// Close implements campaign.Worker: the heavyweight rigs are released,
// but the pool stays usable — a Boot after Close rebuilds its rig, as
// the pre-registry workers did.
func (wk *worker) Close() { wk.rigs = make(rigSet) }

// RunCampaignTable runs a one-driver campaign against an in-memory store
// and renders the aggregate — the execution core of every Table 3/4
// style entry point.
func RunCampaignTable(driver string, opts MutationOptions) (*DriverTable, error) {
	spec := CampaignSpec(driver, opts)
	store := campaign.NewMemStore()
	if _, err := campaign.Run(spec, NewWorkload(), store, campaign.Options{
		Workers: opts.Workers,
	}); err != nil {
		return nil, err
	}
	tables, _, err := campaign.Aggregate(store.Records())
	if err != nil {
		return nil, err
	}
	t, ok := tables[driver]
	if !ok {
		return nil, fmt.Errorf("campaign produced no data for driver %s", driver)
	}
	return TableFromCampaign(t), nil
}
