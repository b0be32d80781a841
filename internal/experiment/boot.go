// Package experiment drives the paper's evaluation: it assembles simulated
// machines, compiles (and later mutates) driver sources, boots them, and
// classifies every run into the outcome taxonomy of §4.2.
package experiment

import (
	"fmt"
	"time"

	"repro/internal/cdriver/cast"
	"repro/internal/cdriver/ccheck"
	"repro/internal/cdriver/ccompile"
	"repro/internal/cdriver/ccov"
	"repro/internal/cdriver/cincr"
	"repro/internal/cdriver/cinterp"
	"repro/internal/cdriver/clexer"
	"repro/internal/cdriver/cparser"
	"repro/internal/cdriver/ctoken"
	"repro/internal/cdriver/ctypes"
	"repro/internal/devil/codegen"
	"repro/internal/hw"
	"repro/internal/hw/ide"
	"repro/internal/kernel"
)

// Port assignment of the simulated machine, matching the PC convention the
// driver sources hard-code.
const (
	ideCmdBase hw.Port = 0x1f0
	ideCtlBase hw.Port = 0x3f6
)

// Backend names an hwC execution engine.
type Backend string

// The two execution backends. The block backend — closure compilation
// plus basic-block fusion and batched port I/O — is the campaign hot
// path; the tree-walking interpreter is the reference oracle the
// differential test holds it to. Both charge the watchdog per basic
// block (one step per straight-line run), so every observable, step
// counts included, is identical across backends.
const (
	BackendBlock  Backend = "block"
	BackendInterp Backend = "interp"
)

// ParseBackend normalises a backend name; the empty string selects the
// default (block) engine.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", string(BackendBlock):
		return BackendBlock, nil
	case string(BackendInterp), "tree", "interpreter":
		return BackendInterp, nil
	}
	return "", fmt.Errorf("unknown execution backend %q (want block or interp)", s)
}

// envKey indexes the cached type environments: the environment depends
// only on whether the driver is CDevil and whether checking is permissive.
type envKey struct {
	devil      bool
	permissive bool
}

// execCaches is the per-worker hot-path state every rig carries:
// generated stubs reset rather than regenerated between boots, type
// environments, and the block backend's pooled execution buffers.
// ccheck never mutates an environment, so one cached instance serves
// every boot of a worker.
type execCaches struct {
	exec  *ccompile.Mach
	stubs map[codegen.Mode]*codegen.Stubs
	envs  map[envKey]*ctypes.Env
	// incr holds the incremental front end's pristine pipelines: the
	// pristine check scope and the in-place patching compiler, one per
	// block boot configuration.
	incr map[incrKey]*incrState
	// obs is the boot pipeline's instrumentation bundle — noObs (every
	// operation a no-op) unless an observed campaign rebinds it.
	obs *bootObs
}

func newExecCaches() execCaches {
	return execCaches{
		exec:  ccompile.NewMach(),
		stubs: make(map[codegen.Mode]*codegen.Stubs),
		envs:  make(map[envKey]*ctypes.Env),
		incr:  make(map[incrKey]*incrState),
		obs:   noObs,
	}
}

// stubsFor returns the cached stubs for a mode, rewound to power-on
// state — generation (spec walk, interface construction, enum tables)
// happens once per worker, not once per mutant.
func (c *execCaches) stubsFor(mode codegen.Mode, generate func(codegen.Mode) (*codegen.Stubs, error)) (*codegen.Stubs, error) {
	if s, ok := c.stubs[mode]; ok {
		s.Reset()
		return s, nil
	}
	s, err := generate(mode)
	if err != nil {
		return nil, err
	}
	c.stubs[mode] = s
	return s, nil
}

// envFor returns (building on first use) the type environment for a boot
// configuration.
func (c *execCaches) envFor(input BootInput, stubs *codegen.Stubs) (*ctypes.Env, error) {
	key := envKey{devil: input.Devil, permissive: input.Permissive}
	if env, ok := c.envs[key]; ok {
		return env, nil
	}
	env := ctypes.NewEnv(input.Devil && !input.Permissive)
	if input.Devil {
		if err := env.AddStubs(stubs.Interface()); err != nil {
			return nil, err
		}
	}
	c.envs[key] = env
	return env, nil
}

// buildEngine is the shared front half of one boot on any rig: parse
// the mutated token stream, apply the budget, look up cached stubs and
// environment, type-check, and construct the selected backend. On return
// exactly one of ex and res is meaningful: a nil ex means the boot is
// already decided (compile-time detection or an insmod fault) and res is
// final; otherwise res is fresh and the caller drives ex.
//
// With a Mutation input the block backend runs the incremental front
// end first: only the declaration span containing the mutated token is
// re-parsed, re-checked and recompiled against the worker's cached
// pristine pipeline. A span-unsafe mutation falls through to the full
// pipeline below on the materialised mutated stream, and so does every
// interp boot: the oracle shares no front-end state with the backend it
// checks.
func (c *execCaches) buildEngine(r *Rig, input BootInput) (Engine, *BootResult, error) {
	kern, bus, generate := r.Kern, r.Bus, r.Stubs
	if input.Mutation != nil {
		if input.Backend != BackendInterp {
			ex, res, done, err := c.buildIncremental(r, input)
			if err != nil {
				return nil, nil, err
			}
			if done {
				return ex, res, nil
			}
			c.obs.fullFrontend.Inc()
		}
		input.Tokens = input.Mutation.Apply()
	}
	res := &BootResult{}
	tp := c.obs.respan.Start()
	prog, perrs := cparser.ParseTokens(input.Tokens)
	tp.Stop()
	if len(perrs) > 0 {
		for _, e := range perrs {
			res.CompileErrors = append(res.CompileErrors, e)
		}
		return nil, res, nil
	}
	if input.Budget > 0 {
		kern.SetBudget(input.Budget)
	}
	var stubs *codegen.Stubs
	if input.Devil {
		mode := input.StubMode
		if mode == 0 {
			mode = codegen.Debug
		}
		var err error
		stubs, err = c.stubsFor(mode, generate)
		if err != nil {
			return nil, nil, err
		}
	}
	env, err := c.envFor(input, stubs)
	if err != nil {
		return nil, nil, err
	}
	tc := c.obs.check.Start()
	cerrs := ccheck.Check(prog, env)
	tc.Stop()
	if len(cerrs) > 0 {
		for _, e := range cerrs {
			res.CompileErrors = append(res.CompileErrors, e)
		}
		return nil, res, nil
	}
	tb := c.obs.compile.Start()
	ex, rerr := newEngine(input.Backend, prog, env, kern, bus, stubs, c.exec, c.obs)
	tb.Stop()
	if rerr != nil {
		// Global initialiser fault: machine-level failure at insmod time.
		res.Outcome = kernel.Classify(rerr)
		res.RunErr = rerr
		return nil, res, nil
	}
	return ex, res, nil
}

// BootInput describes one driver build to boot.
type BootInput struct {
	// Tokens is the (possibly mutated) driver token stream.
	Tokens []ctoken.Token
	// Mutation, when non-nil, is the boot's driver instead of Tokens:
	// Mutation's pristine analysed source with exactly one token
	// replaced. On the block backend it selects the incremental front
	// end, which materialises the mutated stream only on the
	// span-unsafe fallback path; on interp the mutated stream always
	// runs the full pipeline. Campaign workers boot this way.
	Mutation *cincr.Mutation
	// Devil selects the CDevil pipeline: strict typing + generated stubs.
	Devil bool
	// StubMode is the stub generation mode for Devil drivers (Debug when
	// zero, matching the paper's development configuration).
	StubMode codegen.Mode
	// Permissive downgrades the CDevil type checker to plain C rules while
	// keeping the stubs at run time — the weak-typing ablation.
	Permissive bool
	// Budget overrides the watchdog budget when non-zero.
	Budget int64
	// Backend selects the execution engine (block when empty).
	Backend Backend
	// FaultSeed seeds the rig's fault injector (if a scenario armed one)
	// for this boot. Campaign workers derive it from the task's stable
	// identity, so fault patterns survive sharding and resume.
	FaultSeed uint64
	// WallBudget, when positive, arms a wall-clock deadline on the kernel
	// for this boot — the harness safety net behind the deterministic
	// step-count watchdog.
	WallBudget time.Duration
}

// BootResult is the classified outcome of one build-and-boot.
type BootResult struct {
	// CompileErrors is non-empty when the mutant died at compile time.
	CompileErrors []error
	// Outcome classifies the run (meaningless if CompileErrors is set).
	Outcome kernel.Outcome
	// RunErr is the error the boot terminated with, if any.
	RunErr error
	// Console is the kernel console log. Like Coverage it aliases the
	// machine's pooled buffer: it is valid until the machine that
	// produced it boots again, so callers that keep results across boots
	// must copy it.
	Console []string
	// Coverage is the executed-line set (for dead-code classification).
	// With the block backend it aliases the machine's pooled buffer:
	// it is valid until the machine that produced it boots again, so
	// callers that keep results across boots must Clone it.
	Coverage *ccov.Set
	// Report is the filesystem mount/check report (nil if boot died first).
	Report *kernel.BootReport
	// DamagedSectors lists LBAs the audit found corrupted.
	DamagedSectors []uint32
	// PartitionTableLost mirrors the paper's reformat-the-disk anecdote.
	PartitionTableLost bool
	// Steps is the watchdog step count consumed.
	Steps int64
}

// CompileDetected reports whether the mutant died at compile time.
func (r *BootResult) CompileDetected() bool { return len(r.CompileErrors) > 0 }

// newEngine builds the selected execution backend for a checked program.
// A non-nil error is a run-time insmod fault (a global initialiser
// crashed) and classifies like any boot-terminating error.
func newEngine(b Backend, prog *cast.Program, env *ctypes.Env, kern *kernel.Kernel,
	bus *hw.Bus, stubs *codegen.Stubs, mach *ccompile.Mach, o *bootObs) (Engine, error) {
	if b == BackendInterp {
		return cinterp.New(prog, env, kern, bus, stubs)
	}
	p := ccompile.Compile(prog, kern, bus, stubs, mach)
	o.addBlockStats(p.Stats())
	if err := p.Init(); err != nil {
		return p, err
	}
	return p, nil
}

// The IDE workload is the paper's Tables 3/4 rig: a full simulated PC
// with controller and checksummed disk, whose boot mounts and checks a
// filesystem through the driver and audits the image for damage.

// ideDev is the IDE workload's device handle: controller, live image and
// the pristine snapshot the damage audit compares against.
type ideDev struct {
	Ctrl     *ide.Controller
	Image    *kernel.FSImage
	Pristine *kernel.FSImage
}

var ideWorkload = WorkloadDesc{
	Name:    "ide",
	Drivers: []string{"ide_c", "ide_devil"},
	Spec:    "ide",
	Bases: map[string]hw.Port{
		"cmd":  ideCmdBase,
		"ctl":  ideCtlBase,
		"data": ideCmdBase,
	},
	Build: func(r *Rig) (any, error) {
		img, err := kernel.BuildImage(kernel.DefaultFiles(), 8)
		if err != nil {
			return nil, fmt.Errorf("build image: %w", err)
		}
		pristine := img.Clone()
		disk := ide.NewDisk("REPRO HARDDISK v1.0", img.Sectors)
		ctrl := ide.NewController(r.Clock, disk)
		if err := r.Bus.Map(ideCmdBase, 8, ctrl); err != nil {
			return nil, err
		}
		if err := r.Bus.Map(ideCtlBase, 1, ctrl.ControlBlock()); err != nil {
			return nil, err
		}
		return &ideDev{Ctrl: ctrl, Image: img, Pristine: pristine}, nil
	},
	Reset: func(dev any) {
		d := dev.(*ideDev)
		// Image restored in place via FSImage.RestoreFrom; controller
		// cold-started.
		d.Image.RestoreFrom(d.Pristine)
		d.Ctrl.Reset()
	},
	Run: runIDEBoot,
}

// blockAdapter exposes the executing driver as a kernel.BlockDriver.
type blockAdapter struct {
	ex   Engine
	kern *kernel.Kernel
}

var _ kernel.BlockDriver = (*blockAdapter)(nil)

// ReadSectors implements kernel.BlockDriver.
func (a *blockAdapter) ReadSectors(lba uint32, count int) ([]byte, error) {
	ret, err := a.ex.Call("ide_read_sectors",
		cinterp.IntValue(int64(lba)), cinterp.IntValue(int64(count)))
	if err != nil {
		return nil, err
	}
	data := make([]byte, count*kernel.SectorSize)
	if ret.Kind == cinterp.ValInt && ret.I != 0 {
		// The driver reported failure: the kernel logs an I/O error and the
		// zero-filled buffer fails the filesystem checks downstream.
		a.kern.Printk(fmt.Sprintf("ide0: read error at sector %d", lba))
		return data, nil
	}
	copy(data, a.kern.Buf())
	return data, nil
}

// WriteSectors implements kernel.BlockDriver.
func (a *blockAdapter) WriteSectors(lba uint32, data []byte) error {
	copy(a.kern.Buf(), data)
	count := len(data) / kernel.SectorSize
	ret, err := a.ex.Call("ide_write_sectors",
		cinterp.IntValue(int64(lba)), cinterp.IntValue(int64(count)))
	if err != nil {
		return err
	}
	if ret.Kind == cinterp.ValInt && ret.I != 0 {
		a.kern.Printk(fmt.Sprintf("ide0: write error at sector %d", lba))
	}
	return nil
}

// runIDEBoot performs the boot sequence: driver initialisation, the
// filesystem mount-and-check through the driver, then the disk audit
// against the pristine image.
func runIDEBoot(r *Rig, ex Engine, res *BootResult) (error, bool) {
	d := r.Dev.(*ideDev)
	ret, err := ex.Call("ide_init")
	if err != nil {
		return err, false
	}
	if ret.Kind == cinterp.ValInt && ret.I != 0 {
		return r.Kern.Panic("ide: initialisation failed"), false
	}
	// The driver left the IDENTIFY block in the transfer buffer; the
	// kernel extracts the drive capacity (words 60/61) and uses it to
	// sanity-check the partition, as a real block layer would.
	buf := r.Kern.Buf()
	totalSectors := uint32(buf[120]) | uint32(buf[121])<<8 |
		uint32(buf[122])<<16 | uint32(buf[123])<<24
	adapter := &blockAdapter{ex: ex, kern: r.Kern}
	rep, err := r.Kern.MountAndCheck(adapter, d.Pristine, totalSectors)
	res.Report = rep
	if err != nil {
		return err, false
	}
	r.Kern.Printk("boot: reached userspace")
	damaged, lost := kernel.AuditDisk(d.Image, d.Pristine)
	res.DamagedSectors = damaged
	res.PartitionTableLost = lost
	return nil, (rep != nil && rep.Damaged()) || len(damaged) > 0
}

// ParseDriver lexes a driver source for mutation or direct boot.
func ParseDriver(src string) ([]ctoken.Token, error) {
	toks, errs := clexer.Lex(src)
	if len(errs) > 0 {
		return nil, fmt.Errorf("lex driver: %v", errs[0])
	}
	return toks, nil
}
