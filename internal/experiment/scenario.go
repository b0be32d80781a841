package experiment

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/hw"
)

// This file is the scenario registry: named descriptor transforms that
// turn a registered workload into the same workload on degraded
// hardware. A scenario never adds a rig or a boot path — it rewrites
// the WorkloadDesc (today: wrapping Build to arm a hw.Injector on the
// rig's bus), and everything downstream (machine assembly, both
// backends, both front ends, campaign routing, tables) is untouched.
// Campaign specs cross their driver list with a scenario list to form
// a matrix; each cell's injector is reseeded per boot from the task's
// FaultSeed, so fault patterns are a pure function of the task and the
// differential oracle's observables stay byte-identical across
// backends, front ends, shardings and resumes.

// ScenarioDesc declares one registered scenario: a name, CLI help text,
// its integer parameter (nil: the scenario takes none), and the
// transform that rewrites a workload descriptor. Transform receives the
// parsed parameter — Param.Default when the cell names none, 0 when
// Param is nil.
type ScenarioDesc struct {
	Name      string
	Help      string
	Param     *ScenarioParam
	Transform func(n int, d WorkloadDesc) WorkloadDesc
}

// ScenarioParam bounds a scenario's ":n" parameter.
type ScenarioParam struct {
	Default, Min, Max int
	Unit              string
}

var scenarioRegistry = struct {
	mu     sync.RWMutex
	order  []*ScenarioDesc
	byName map[string]*ScenarioDesc
}{
	byName: make(map[string]*ScenarioDesc),
}

// RegisterScenario adds a scenario to the registry, rejecting empty
// names, names containing the ":" parameter separator, missing
// transforms and duplicates.
func RegisterScenario(d ScenarioDesc) error {
	if d.Name == "" {
		return fmt.Errorf("register scenario: empty name")
	}
	if strings.ContainsRune(d.Name, ':') {
		return fmt.Errorf("register scenario %s: name may not contain ':'", d.Name)
	}
	if d.Transform == nil {
		return fmt.Errorf("register scenario %s: Transform is required", d.Name)
	}
	scenarioRegistry.mu.Lock()
	defer scenarioRegistry.mu.Unlock()
	if _, ok := scenarioRegistry.byName[d.Name]; ok {
		return fmt.Errorf("register scenario %s: already registered", d.Name)
	}
	desc := d
	scenarioRegistry.byName[d.Name] = &desc
	scenarioRegistry.order = append(scenarioRegistry.order, &desc)
	return nil
}

// unregisterScenario removes a scenario; it exists only so tests can
// clean up synthetic registrations.
func unregisterScenario(name string) {
	scenarioRegistry.mu.Lock()
	defer scenarioRegistry.mu.Unlock()
	d, ok := scenarioRegistry.byName[name]
	if !ok {
		return
	}
	delete(scenarioRegistry.byName, name)
	for i, o := range scenarioRegistry.order {
		if o == d {
			scenarioRegistry.order = append(scenarioRegistry.order[:i], scenarioRegistry.order[i+1:]...)
			break
		}
	}
}

// Scenarios returns the registered scenarios in registration order.
func Scenarios() []*ScenarioDesc {
	scenarioRegistry.mu.RLock()
	defer scenarioRegistry.mu.RUnlock()
	out := make([]*ScenarioDesc, len(scenarioRegistry.order))
	copy(out, scenarioRegistry.order)
	return out
}

// parseScenario splits a cell name at the first ":" into a registered
// scenario and its parsed parameter ("flaky-bus:10" is the flaky-bus
// scenario at 10%). It is the one parse behind ApplyScenario and
// Expand's same-cell check.
func parseScenario(name string) (*ScenarioDesc, int, error) {
	if err := scenarioInit(); err != nil {
		return nil, 0, err
	}
	base, param, _ := strings.Cut(name, ":")
	scenarioRegistry.mu.RLock()
	sc := scenarioRegistry.byName[base]
	scenarioRegistry.mu.RUnlock()
	if sc == nil {
		var known []string
		for _, s := range Scenarios() {
			known = append(known, s.Name)
		}
		sort.Strings(known)
		return nil, 0, fmt.Errorf("unknown scenario %q (known: %v)", base, known)
	}
	n, err := sc.Param.parse(param)
	if err != nil {
		return nil, 0, fmt.Errorf("scenario %s: %w", name, err)
	}
	return sc, n, nil
}

// ApplyScenario rewrites a workload descriptor for the named scenario.
func ApplyScenario(name string, d WorkloadDesc) (WorkloadDesc, error) {
	sc, n, err := parseScenario(name)
	if err != nil {
		return WorkloadDesc{}, err
	}
	return sc.Transform(n, d), nil
}

// withInjector wraps a descriptor's Build hook to arm a fault injector
// on the freshly assembled rig — the one shared mechanism behind every
// hardware-degradation scenario. The injector hangs off both the bus
// (the data path) and the rig (so Boot can reseed it per task).
func withInjector(cfg hw.InjectorConfig, d WorkloadDesc) WorkloadDesc {
	prev := d.Build
	d.Build = func(r *Rig) (any, error) {
		var dev any
		if prev != nil {
			var err error
			dev, err = prev(r)
			if err != nil {
				return nil, err
			}
		}
		inj := hw.NewInjector(cfg, r.Clock)
		r.Bus.SetInjector(inj)
		r.Injector = inj
		return dev, nil
	}
	return d
}

// parse reads the parameter text after a cell's ":" ("" when absent)
// against the bounds; a nil ScenarioParam accepts only "".
func (p *ScenarioParam) parse(param string) (int, error) {
	if p == nil {
		if param != "" {
			return 0, fmt.Errorf("takes no parameter, got %q", param)
		}
		return 0, nil
	}
	if param == "" {
		return p.Default, nil
	}
	n, err := strconv.Atoi(param)
	if err != nil {
		return 0, fmt.Errorf("bad parameter %q: want an integer %s", param, p.Unit)
	}
	if n < p.Min || n > p.Max {
		return 0, fmt.Errorf("parameter %d out of range [%d, %d] %s", n, p.Min, p.Max, p.Unit)
	}
	return n, nil
}

func init() {
	for _, d := range []ScenarioDesc{
		{
			Name:      "pristine",
			Help:      "unmodified hardware — the classic evaluation cell (no parameter)",
			Transform: func(_ int, d WorkloadDesc) WorkloadDesc { return d },
		},
		{
			Name:  "flaky-bus",
			Help:  "seeded unreliable port I/O: each mapped read has pct% odds (default 2, max 33) of a dropped, duplicated or stale result",
			Param: &ScenarioParam{Default: 2, Min: 1, Max: 33, Unit: "percent"},
			Transform: func(pct int, d WorkloadDesc) WorkloadDesc {
				rate := uint32(pct) * 100 // percent -> per-myriad
				return withInjector(hw.InjectorConfig{
					DropPerMyriad:  rate,
					DupPerMyriad:   rate,
					StalePerMyriad: rate,
				}, d)
			},
		},
		{
			Name:  "timing",
			Help:  "slow silicon: every mapped port access charges n extra clock ticks (default 8, max 4096), squeezing polling loops against their budgets",
			Param: &ScenarioParam{Default: 8, Min: 1, Max: 4096, Unit: "ticks"},
			Transform: func(ticks int, d WorkloadDesc) WorkloadDesc {
				return withInjector(hw.InjectorConfig{LatencyTicks: uint64(ticks)}, d)
			},
		},
	} {
		if err := RegisterScenario(d); err != nil {
			scenarioRegistry.mu.Lock()
			if scenarioInitErr == nil {
				scenarioInitErr = fmt.Errorf("builtin scenario registry: %w", err)
			}
			scenarioRegistry.mu.Unlock()
		}
	}
}

// scenarioInitErr records a builtin scenario registration failure;
// ApplyScenario surfaces it so a broken registry fails campaigns
// cleanly instead of reporting every scenario unknown.
var scenarioInitErr error

func scenarioInit() error {
	scenarioRegistry.mu.RLock()
	defer scenarioRegistry.mu.RUnlock()
	return scenarioInitErr
}
