package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/campaign"
	"repro/internal/cdriver/cincr"
	"repro/internal/devil/codegen"
	"repro/internal/drivers"
	"repro/internal/experiment"
	"repro/internal/mutation/cmut"
)

// The work-count replay boots a seeded sample of a traced run's records
// again, on rigs the benchmark owns, with the boot input the campaign
// worker builds. It reads the bus's access counters around each boot,
// which the engine's workers do not expose, and checks that every
// replayed boot takes exactly the stored number of watchdog steps.

const replayPct = 5

// replayStats sums the replayed boots' work counts.
type replayStats struct {
	Boots      int
	Mismatches int // replayed step counts that differ from the stored record
	Accesses   uint64
	BusFaults  uint64
	Injected   uint64 // injector drops, duplicates and stale reads
}

// replayPlan is one driver's enumeration, rebuilt the way the campaign
// workload builds it.
type replayPlan struct {
	src  drivers.Source
	desc *experiment.WorkloadDesc
	res  *cmut.Result
	incr *cincr.Source
}

func newReplayPlan(driver string) (*replayPlan, error) {
	src, err := drivers.Load(driver)
	if err != nil {
		return nil, err
	}
	desc, err := experiment.WorkloadFor(driver)
	if err != nil {
		return nil, err
	}
	toks, err := experiment.ParseDriver(src.Text)
	if err != nil {
		return nil, err
	}
	var iface *codegen.Interface
	if src.Devil {
		if iface, err = desc.Interface(); err != nil {
			return nil, err
		}
	}
	res, err := cmut.Enumerate(toks, cmut.Options{Interface: iface})
	if err != nil {
		return nil, fmt.Errorf("driver %s: %w", driver, err)
	}
	p := &replayPlan{src: src, desc: desc, res: res}
	if incr, err := cincr.Analyze(res.Tokens); err == nil {
		p.incr = incr
	}
	return p, nil
}

// replayer owns the plans and rigs of one replay, one rig per (workload,
// scenario) cell, Reset between boots like a campaign worker's.
type replayer struct {
	plans map[string]*replayPlan
	rigs  map[string]*experiment.Rig
	stats replayStats
}

func newReplayer() *replayer {
	return &replayer{plans: make(map[string]*replayPlan), rigs: make(map[string]*experiment.Rig)}
}

func (rp *replayer) rig(p *replayPlan, scenario string) (*experiment.Rig, error) {
	key := p.desc.Name + "@" + scenario
	if r, ok := rp.rigs[key]; ok {
		r.Reset()
		return r, nil
	}
	d := *p.desc
	if scenario != "" {
		var err error
		if d, err = experiment.ApplyScenario(scenario, d); err != nil {
			return nil, err
		}
	}
	r, err := d.NewRig()
	if err != nil {
		return nil, err
	}
	r.Scenario = scenario
	rp.rigs[key] = r
	return r, nil
}

// replay boots a seeded replayPct% sample (at least one) of the result
// records of one campaign run under spec.
func (rp *replayer) replay(spec campaign.Spec, recs []campaign.Record, seed uint64) error {
	mode := codegen.Debug
	if spec.StubMode == "production" {
		mode = codegen.Production
	}
	var results []campaign.Record
	for _, r := range recs {
		if r.Kind == campaign.KindResult && !r.HarnessPanic {
			results = append(results, r)
		}
	}
	if len(results) == 0 {
		return nil
	}
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	rng.Shuffle(len(results), func(i, j int) { results[i], results[j] = results[j], results[i] })
	n := max(1, len(results)*replayPct/100)
	for _, rec := range results[:n] {
		p, ok := rp.plans[rec.Driver]
		if !ok {
			var err error
			if p, err = newReplayPlan(rec.Driver); err != nil {
				return err
			}
			rp.plans[rec.Driver] = p
		}
		if rec.Mutant < 0 || rec.Mutant >= len(p.res.Mutants) {
			return fmt.Errorf("replay %s: mutant outside the enumeration", rec.Key())
		}
		m := p.res.Mutants[rec.Mutant]
		task := campaign.Task{Driver: rec.Driver, Mutant: rec.Mutant, Scenario: rec.Scenario}
		input := experiment.BootInput{
			Devil:      p.src.Devil,
			StubMode:   mode,
			Budget:     experiment.ExperimentBudget,
			Backend:    experiment.BackendBlock,
			FaultSeed:  task.FaultSeed(),
			WallBudget: experiment.DefaultBootWallBudget,
		}
		if p.incr != nil {
			input.Mutation = &cincr.Mutation{Src: p.incr, Index: m.TokenIndex, Replacement: m.Replacement}
		} else {
			input.Tokens = p.res.Apply(m)
		}
		r, err := rp.rig(p, rec.Scenario)
		if err != nil {
			return err
		}
		acc0, faults0 := r.Bus.Stats()
		br, err := r.Boot(input)
		acc1, faults1 := r.Bus.Stats()
		var steps int64
		if err == nil {
			steps = br.Steps // a harness error records as a crash with no steps
		}
		rp.stats.Boots++
		if steps != rec.Steps {
			rp.stats.Mismatches++
		}
		rp.stats.Accesses += acc1 - acc0
		rp.stats.BusFaults += faults1 - faults0
		if r.Injector != nil {
			drops, dups, stales := r.Injector.Stats()
			rp.stats.Injected += drops + dups + stales
		}
	}
	return nil
}
