package experiment

import (
	"strings"
	"testing"

	"repro/internal/cdriver/cinterp"
	"repro/internal/drivers"
	"repro/internal/kernel"
)

// The registry is tested apart from the five real device workloads: a
// synthetic in-test descriptor exercises registration validation, the
// generic boot path, worker rig reuse with Reset, and unknown-driver
// rejection, so the abstraction itself has coverage independent of any
// hardware model.

// synthDev is the synthetic workload's device handle: hook counters the
// test asserts on.
type synthDev struct {
	builds int
	resets int
	runs   int
}

// synthSource is the synthetic driver: no hardware at all, just an
// entry point the boot script calls.
const synthSource = `
//@hw
#define PROBE_OK 0
//@endhw

int probe(void)
{
    //@hw
    return PROBE_OK;
    //@endhw
}
`

func registerSynthetic(t *testing.T) *synthDev {
	t.Helper()
	dev := &synthDev{}
	err := RegisterWorkload(WorkloadDesc{
		Name:    "synthetic-" + t.Name(),
		Drivers: []string{"synthetic_c-" + t.Name()},
		Build: func(r *Rig) (any, error) {
			dev.builds++
			return dev, nil
		},
		Reset: func(d any) { d.(*synthDev).resets++ },
		Run: func(r *Rig, ex Engine, res *BootResult) (error, bool) {
			d := r.Dev.(*synthDev)
			d.runs++
			v, err := ex.Call("probe")
			if err != nil {
				return err, false
			}
			if v.Kind == cinterp.ValInt && v.I != 0 {
				return r.Kern.Panic("synthetic: probe failed"), false
			}
			r.Kern.Printk("synthetic: probed")
			return nil, false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Registration is process-global; clean up so repeated in-process
	// runs (-count=2, stress reruns) stay independent.
	t.Cleanup(func() { unregisterWorkload("synthetic-" + t.Name()) })
	return dev
}

// assertResetRestoresCleanBoot is the registry-driven rig-reuse
// regression shared by every workload: boot the clean driver once to
// dirty the rig, scribble kernel state (console, watchdog), optionally
// dirty device state further, Reset, then require a clean re-boot with
// no stale console. postReset, when non-nil, asserts the descriptor's
// Reset hook rewound the device before the second boot; the re-boot's
// result is returned for workload-specific assertions.
func assertResetRestoresCleanBoot(t *testing.T, driver string,
	dirty func(*Rig), postReset func(*testing.T, *Rig)) *BootResult {
	t.Helper()
	m, err := NewRig(driver)
	if err != nil {
		t.Fatal(err)
	}
	src, err := drivers.Load(driver)
	if err != nil {
		t.Fatal(err)
	}
	toks, err := ParseDriver(src.Text)
	if err != nil {
		t.Fatal(err)
	}
	input := BootInput{Tokens: toks, Devil: src.Devil}
	if _, err := m.Boot(input); err != nil {
		t.Fatal(err)
	}
	if dirty != nil {
		dirty(m)
	}
	m.Kern.Printk("stale console line")
	m.Kern.SetBudget(1)
	m.Reset()
	if postReset != nil {
		postReset(t, m)
	}
	res, err := m.Boot(input)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != kernel.OutcomeBoot {
		t.Fatalf("clean boot on reset rig: %v (%v)", res.Outcome, res.RunErr)
	}
	for _, line := range res.Console {
		if line == "stale console line" {
			t.Error("console not cleared by Reset")
		}
	}
	return res
}

// TestRegistryBootAndReuse: a registered synthetic workload boots
// through the generic rig on both backends, and a campaign worker
// reuses one rig per workload with Reset between boots.
func TestRegistryBootAndReuse(t *testing.T) {
	dev := registerSynthetic(t)
	driver := "synthetic_c-" + t.Name()
	toks, err := ParseDriver(synthSource)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []Backend{BackendBlock, BackendInterp} {
		res, err := BootDriver(driver, BootInput{Tokens: toks, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != kernel.OutcomeBoot {
			t.Fatalf("%s: outcome = %v (%v)", backend, res.Outcome, res.RunErr)
		}
		if len(res.Console) == 0 || res.Console[0] != "synthetic: probed" {
			t.Errorf("%s: console = %v", backend, res.Console)
		}
	}
	if dev.builds != 2 || dev.runs != 2 {
		t.Errorf("fresh-rig boots: builds=%d runs=%d, want 2/2", dev.builds, dev.runs)
	}

	// A worker's rig pool builds the workload's rig once and Resets it
	// on every later request — the campaign hot-path contract.
	rigs := make(rigSet)
	r1, err := rigs.rigFor(driver, "")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := rigs.rigFor(driver, "")
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("worker built a second rig instead of reusing the first")
	}
	if dev.builds != 3 {
		t.Errorf("builds = %d after worker reuse, want 3", dev.builds)
	}
	if dev.resets != 1 {
		t.Errorf("resets = %d after worker reuse, want 1", dev.resets)
	}
	// Rig.Reset also rewinds the kernel.
	r1.Kern.Printk("stale")
	r1.Reset()
	if dev.resets != 2 || len(r1.Kern.ConsoleView()) != 0 {
		t.Errorf("Reset: resets=%d console=%v", dev.resets, r1.Kern.ConsoleView())
	}
}

// TestRegistryValidation: structurally invalid descriptors and
// double-registrations are rejected.
func TestRegistryValidation(t *testing.T) {
	noop := func(r *Rig) (any, error) { return nil, nil }
	run := func(r *Rig, ex Engine, res *BootResult) (error, bool) { return nil, false }
	for name, d := range map[string]WorkloadDesc{
		"empty name":              {Drivers: []string{"x_c"}, Build: noop, Run: run},
		"no drivers":              {Name: "no-drivers-" + t.Name(), Build: noop, Run: run},
		"no hooks":                {Name: "no-hooks-" + t.Name(), Drivers: []string{"y_c"}},
		"duplicate name":          {Name: "ide", Drivers: []string{"z_c"}, Build: noop, Run: run},
		"claimed driver":          {Name: "other-" + t.Name(), Drivers: []string{"ide_c"}, Build: noop, Run: run},
		"name shadowing a driver": {Name: "ide_c", Drivers: []string{"w_c"}, Build: noop, Run: run},
		"driver shadowing a name": {Name: "shadow-" + t.Name(), Drivers: []string{"ide"}, Build: noop, Run: run},
	} {
		if err := RegisterWorkload(d); err == nil {
			t.Errorf("%s: registration accepted", name)
		}
	}
}

// TestRegistryUnknownDriver: lookups and boots of unrouted drivers fail
// with an informative error instead of defaulting to some rig.
func TestRegistryUnknownDriver(t *testing.T) {
	if _, err := WorkloadFor("floppy_c"); err == nil ||
		!strings.Contains(err.Error(), "floppy_c") {
		t.Errorf("WorkloadFor(floppy_c) = %v", err)
	}
	if _, err := NewRig("floppy_c"); err == nil {
		t.Error("NewRig built a rig for an unrouted driver")
	}
	if _, err := BootDriver("floppy_c", BootInput{}); err == nil {
		t.Error("BootDriver booted an unrouted driver")
	}
	if _, err := make(rigSet).rigFor("floppy_c", ""); err == nil {
		t.Error("worker built a rig for an unrouted driver")
	}
}

// TestRegistryCoversCorpus: every embedded driver routes to a workload
// whose descriptor lists it, and the registered workloads carry the
// spec/bases a Devil driver needs.
func TestRegistryCoversCorpus(t *testing.T) {
	for _, d := range Workloads() {
		if strings.HasPrefix(d.Name, "synthetic") {
			continue
		}
		if d.Spec == "" {
			t.Errorf("workload %s has no specification", d.Name)
		}
		if _, err := d.Interface(); err != nil {
			t.Errorf("workload %s: interface: %v", d.Name, err)
		}
		for _, drv := range d.Drivers {
			back, err := WorkloadFor(drv)
			if err != nil {
				t.Errorf("driver %s: %v", drv, err)
				continue
			}
			if back.Name != d.Name {
				t.Errorf("driver %s routes to %s, registered under %s", drv, back.Name, d.Name)
			}
		}
	}
}
