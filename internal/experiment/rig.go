package experiment

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cdriver/ccov"
	"repro/internal/cdriver/cinterp"
	"repro/internal/devil"
	"repro/internal/devil/codegen"
	"repro/internal/hw"
	"repro/internal/hw/sysboard"
	"repro/internal/kernel"
	"repro/internal/specs"
)

// This file is the workload registry and the generic boot rig. A
// workload — one driver pair booting against one simulated device — is
// declared as a WorkloadDesc: which drivers route to it, which Devil
// specification its stubs compile from, how its devices assemble on the
// bus, how they rewind between boots, and the boot script that drives
// the driver through its kernel duty and audits the result. Everything
// else — machine assembly, per-worker caches, both execution backends,
// both front ends, campaign routing, table rendering — is shared: adding
// a device family to the evaluation is a registry entry, a driver pair
// and (if the device is new) a hardware model, never a fourth copy of
// the boot loop.

// specFor returns (compiling on first use) the named embedded Devil
// specification. The cache is shared by every workload: specifications
// are not mutated by the driver experiments, so one compiled Spec serves
// all rigs, stub modes and workers.
func specFor(name string) (*devil.Spec, error) {
	specCache.mu.Lock()
	defer specCache.mu.Unlock()
	if s, ok := specCache.specs[name]; ok {
		return s, nil
	}
	src, err := specs.Load(name)
	if err != nil {
		return nil, err
	}
	spec, err := devil.Compile(src.Filename, src.Source)
	if err != nil {
		return nil, fmt.Errorf("compile spec %s: %w", name, err)
	}
	if specCache.specs == nil {
		specCache.specs = make(map[string]*devil.Spec)
	}
	specCache.specs[name] = spec
	return spec, nil
}

var specCache struct {
	mu    sync.Mutex
	specs map[string]*devil.Spec
}

// Engine is the surface a boot script drives; both backends satisfy it
// (cinterp.Interp and ccompile.Proc).
type Engine interface {
	Call(name string, args ...cinterp.Value) (cinterp.Value, error)
	Coverage() *ccov.Set
}

// WorkloadDesc declares one registered workload: a driver pair, its
// specification, and the three hooks (Build, Reset, Run) that are the
// only per-device code in the evaluation.
type WorkloadDesc struct {
	// Name is the workload's short name ("ide", "busmouse", ...). It keys
	// rig reuse in campaign workers and names the workload in CLI help.
	Name string
	// Drivers lists the embedded driver sources routed to this workload,
	// conventionally the Name+"_c" / Name+"_devil" pair.
	Drivers []string
	// Spec names the embedded Devil specification the pair's CDevil
	// driver compiles against ("" for a workload without one; such a
	// workload can only boot plain-C drivers).
	Spec string
	// Bases assigns a bus base address to each of the specification's
	// port parameters; stub generation binds them on the rig's bus.
	Bases map[string]hw.Port
	// Build assembles the workload's devices on the rig's bus (the
	// system board is already mapped) and returns the device handle
	// Reset and Run receive through the rig.
	Build func(r *Rig) (dev any, err error)
	// Reset returns Build's devices to their power-on state; the rig
	// resets the kernel itself. Nil for stateless devices.
	Reset func(dev any)
	// Run is the boot script: drive the compiled driver through its
	// kernel duty and audit the result against ground truth the driver
	// never sees. It returns the terminating error (nil for a completed
	// boot) and whether the completed boot left visible damage.
	Run func(r *Rig, ex Engine, res *BootResult) (error, bool)
}

// Interface builds the stub interface enumeration needs for the
// workload's CDevil driver (the identifier-mutation pools): stubs
// generated against a throwaway bus, since only the name surface is
// consulted.
func (d *WorkloadDesc) Interface() (*codegen.Interface, error) {
	if d.Spec == "" {
		return nil, fmt.Errorf("workload %s has no Devil specification", d.Name)
	}
	spec, err := specFor(d.Spec)
	if err != nil {
		return nil, err
	}
	stubs, err := spec.Generate(devil.Config{
		Bus:   hw.NewBus(),
		Bases: d.Bases,
		Mode:  codegen.Debug,
	})
	if err != nil {
		return nil, err
	}
	return stubs.Interface(), nil
}

// NewRig assembles one rig for this workload: clock, floating ISA bus
// with the fragile system-board devices mapped, kernel, the workload's
// devices, and the per-worker compilation caches.
func (d *WorkloadDesc) NewRig() (*Rig, error) {
	clock := &hw.Clock{}
	bus := hw.NewBus()
	// ISA semantics: unmapped ports float, and the fragile system devices
	// (PIC, timer, DMA, CMOS) share the port space — see hw/sysboard.
	bus.SetFloating(true)
	if err := sysboard.MapAll(bus); err != nil {
		return nil, err
	}
	r := &Rig{
		Clock:  clock,
		Bus:    bus,
		Kern:   kernel.New(clock),
		Desc:   d,
		caches: newExecCaches(),
	}
	dev, err := d.Build(r)
	if err != nil {
		return nil, err
	}
	r.Dev = dev
	return r, nil
}

// registry holds the registered workloads in registration order. The
// built-in workloads register from a single init below, so the order —
// which numbers the extension tables in cmd/driverlab — is explicit
// rather than file-name-dependent.
var registry = struct {
	mu       sync.RWMutex
	order    []*WorkloadDesc
	byName   map[string]*WorkloadDesc
	byDriver map[string]*WorkloadDesc
	// initErr records the first builtin registration failure. A bad
	// builtin descriptor must not panic the process at import time (the
	// campaign engine is built to survive per-boot faults, not init
	// crashes): every lookup surfaces the error instead, so a campaign
	// over a broken registry fails cleanly with the root cause.
	initErr error
}{
	byName:   make(map[string]*WorkloadDesc),
	byDriver: make(map[string]*WorkloadDesc),
}

// RegisterWorkload adds a workload to the registry. It rejects
// descriptors missing a name, drivers, Build or Run hook, and names or
// drivers already claimed — each driver routes to exactly one workload.
func RegisterWorkload(d WorkloadDesc) error {
	if d.Name == "" {
		return fmt.Errorf("register workload: empty name")
	}
	if len(d.Drivers) == 0 {
		return fmt.Errorf("register workload %s: no drivers", d.Name)
	}
	if d.Build == nil || d.Run == nil {
		return fmt.Errorf("register workload %s: Build and Run hooks are required", d.Name)
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	// Names and drivers share NewRig's lookup space, so collisions are
	// rejected across both namespaces: a driver may not shadow another
	// workload's name, nor a name another workload's driver.
	if _, ok := registry.byName[d.Name]; ok {
		return fmt.Errorf("register workload %s: name already registered", d.Name)
	}
	if prev, ok := registry.byDriver[d.Name]; ok {
		return fmt.Errorf("register workload %s: name collides with a driver of %s",
			d.Name, prev.Name)
	}
	for _, drv := range d.Drivers {
		if prev, ok := registry.byDriver[drv]; ok {
			return fmt.Errorf("register workload %s: driver %s already routed to %s",
				d.Name, drv, prev.Name)
		}
		if prev, ok := registry.byName[drv]; ok {
			return fmt.Errorf("register workload %s: driver %s collides with workload name %s",
				d.Name, drv, prev.Name)
		}
	}
	desc := d
	registry.byName[d.Name] = &desc
	for _, drv := range d.Drivers {
		registry.byDriver[drv] = &desc
	}
	registry.order = append(registry.order, &desc)
	return nil
}

// registerBuiltin registers one builtin workload, recording (rather
// than panicking on) a bad descriptor; registryErr surfaces the failure
// from every lookup.
func registerBuiltin(d WorkloadDesc) {
	if err := RegisterWorkload(d); err != nil {
		registry.mu.Lock()
		if registry.initErr == nil {
			registry.initErr = fmt.Errorf("builtin workload registry: %w", err)
		}
		registry.mu.Unlock()
	}
}

// registryErr returns the recorded builtin-registration failure, if any.
// Callers must not hold the registry lock.
func registryErr() error {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return registry.initErr
}

// unregisterWorkload removes a workload and its driver routes from the
// registry. Registration is meant to be init-time and permanent; this
// exists so tests that register synthetic workloads can clean up after
// themselves (t.Cleanup), keeping repeated in-process runs independent.
func unregisterWorkload(name string) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	d, ok := registry.byName[name]
	if !ok {
		return
	}
	delete(registry.byName, name)
	for _, drv := range d.Drivers {
		delete(registry.byDriver, drv)
	}
	for i, o := range registry.order {
		if o == d {
			registry.order = append(registry.order[:i], registry.order[i+1:]...)
			break
		}
	}
}

func init() {
	// Registration order is presentation order: the paper's IDE pair
	// first, then the extension pairs in the order they joined the
	// evaluation (driverlab numbers its extension tables from it).
	for _, d := range []WorkloadDesc{
		ideWorkload,
		mouseWorkload,
		netWorkload,
		gfxWorkload,
		dmaWorkload,
	} {
		registerBuiltin(d)
	}
}

// WorkloadFor routes a driver name to its registered workload.
func WorkloadFor(driver string) (*WorkloadDesc, error) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	if registry.initErr != nil {
		return nil, registry.initErr
	}
	if d, ok := registry.byDriver[driver]; ok {
		return d, nil
	}
	var known []string
	for drv := range registry.byDriver {
		known = append(known, drv)
	}
	sort.Strings(known)
	return nil, fmt.Errorf("no workload registered for driver %q (known: %v)", driver, known)
}

// Workloads returns the registered workloads in registration order.
func Workloads() []*WorkloadDesc {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]*WorkloadDesc, len(registry.order))
	copy(out, registry.order)
	return out
}

// Rig is one assembled simulated PC booting one workload: clock, bus
// (system board plus the workload's devices), kernel, the workload's
// device handle, and the per-worker caches of the campaign hot path —
// generated stubs (reset, not regenerated, between boots), type
// environments, the block backend's pooled execution buffers and the
// incremental front end's pristine pipelines. A campaign worker builds
// one rig per workload and Resets it between boots.
type Rig struct {
	Clock *hw.Clock
	Bus   *hw.Bus
	Kern  *kernel.Kernel
	// Desc is the workload this rig was assembled for.
	Desc *WorkloadDesc
	// Dev is the device handle Desc.Build returned; Desc.Run and the
	// workload's tests type-assert it back.
	Dev any
	// Injector is the fault injector a scenario's Build wrapper armed on
	// the bus (nil on pristine rigs). Boot reseeds it per task so fault
	// patterns are a function of the task, not of boot order.
	Injector *hw.Injector
	// Scenario is the scenario name this rig was transformed under (""
	// for a pristine rig).
	Scenario string

	caches execCaches
}

// NewRig builds a rig for the named driver (or, if no driver matches,
// the named workload).
func NewRig(name string) (*Rig, error) {
	registry.mu.RLock()
	initErr := registry.initErr
	d, ok := registry.byDriver[name]
	if !ok {
		d = registry.byName[name]
	}
	registry.mu.RUnlock()
	if initErr != nil {
		return nil, initErr
	}
	if d == nil {
		return nil, fmt.Errorf("no workload registered for %q", name)
	}
	return d.NewRig()
}

// Reset returns the rig to its power-on state: the workload's devices
// through the descriptor hook, then the kernel (console, watchdog,
// transfer buffer). A campaign worker calls it between boots so the
// simulated PC is built once per worker instead of once per mutant.
func (r *Rig) Reset() {
	if r.Desc.Reset != nil {
		r.Desc.Reset(r.Dev)
	}
	r.Kern.Reset()
}

// Stubs generates the workload's Devil stubs bound to the rig's bus.
func (r *Rig) Stubs(mode codegen.Mode) (*codegen.Stubs, error) {
	if r.Desc.Spec == "" {
		return nil, fmt.Errorf("workload %s has no Devil specification", r.Desc.Name)
	}
	spec, err := specFor(r.Desc.Spec)
	if err != nil {
		return nil, err
	}
	return spec.Generate(devil.Config{Bus: r.Bus, Bases: r.Desc.Bases, Mode: mode})
}

// Boot compiles and boots one driver build on the rig, which must be
// freshly built or Reset.
func (r *Rig) Boot(input BootInput) (*BootResult, error) {
	// Scenario plumbing: rewind the fault injector to this task's seed —
	// never global randomness, so the fault pattern a mutant meets is
	// identical in serial, sharded and resumed runs on either backend —
	// and arm the wall-clock safety net behind the step watchdog.
	if r.Injector != nil {
		r.Injector.Reseed(input.FaultSeed)
	}
	if input.WallBudget > 0 {
		r.Kern.SetDeadline(input.WallBudget)
	}
	// Phase 1: "compilation" — parse plus type check, against the rig's
	// per-worker caches. Only the mutated token stream (or, with the
	// incremental front end, the one mutated declaration) is per-mutant
	// work.
	ex, res, err := r.caches.buildEngine(r, input)
	if err != nil {
		return nil, err
	}
	if ex == nil {
		return res, nil
	}
	// Phase 2: the workload's boot script drives the driver and audits
	// the result; the classification below is shared by every workload.
	o := r.caches.obs
	te := o.execute.Start()
	runErr, damaged := r.Desc.Run(r, ex, res)
	te.Stop()
	tc := o.classify.Start()
	res.Console = r.Kern.ConsoleView()
	res.Coverage = ex.Coverage()
	res.Steps = r.Kern.Steps()
	res.RunErr = runErr
	res.Outcome = kernel.Classify(runErr)
	if runErr == nil && damaged {
		res.Outcome = kernel.OutcomeDamagedBoot
	}
	tc.Stop()
	return res, nil
}

// BootOn compiles and boots one driver build on r. It is the generic
// boot entry point campaign workers use to amortise machine
// construction — and, with the block backend, stub generation, type
// environments and execution buffers — across boots.
func BootOn(r *Rig, input BootInput) (*BootResult, error) {
	return r.Boot(input)
}

// BootDriver compiles and boots one driver build on a freshly built rig
// of the driver's workload.
func BootDriver(driver string, input BootInput) (*BootResult, error) {
	r, err := NewRig(driver)
	if err != nil {
		return nil, err
	}
	return r.Boot(input)
}

// rigSet pools one reused rig per (workload, scenario) cell: rigFor
// builds a cell's rig on first use — applying the scenario's descriptor
// transform — and Resets it on every later one: the per-worker reuse
// pattern campaign workers and the differential oracle share.
type rigSet map[string]*Rig

func (s rigSet) rigFor(driver, scenario string) (*Rig, error) {
	desc, err := WorkloadFor(driver)
	if err != nil {
		return nil, err
	}
	key := desc.Name + "@" + scenario
	if r, ok := s[key]; ok {
		r.Reset()
		return r, nil
	}
	d := *desc
	if scenario != "" {
		d, err = ApplyScenario(scenario, d)
		if err != nil {
			return nil, err
		}
	}
	r, err := d.NewRig()
	if err != nil {
		return nil, err
	}
	r.Scenario = scenario
	s[key] = r
	return r, nil
}
