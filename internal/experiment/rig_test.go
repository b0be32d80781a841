package experiment

import (
	"strings"
	"testing"

	"repro/internal/cdriver/cinterp"
	"repro/internal/drivers"
	"repro/internal/kernel"
)

// The generic rig is tested apart from the five real device workloads:
// a synthetic in-test descriptor exercises the generic boot path and
// Reset, so the abstraction itself has coverage independent of any
// hardware model; the fixed workload table's invariants, worker rig
// reuse and unknown-driver rejection are tested over the real table.

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

// syntheticWorkload returns the synthetic workload's descriptor and the
// device handle its hooks count on.
func syntheticWorkload() (*WorkloadDesc, *synthDev) {
	dev := &synthDev{}
	return &WorkloadDesc{
		Name:    "synthetic",
		Drivers: []string{"synthetic_c"},
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
	}, dev
}

// assertResetRestoresCleanBoot is the table-driven rig-reuse
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

// TestRegistryBootAndReuse: a synthetic workload boots through the
// generic rig on both backends, Rig.Reset runs the descriptor's hook and
// rewinds the kernel, and a campaign worker reuses one rig per workload
// with Reset between boots.
func TestRegistryBootAndReuse(t *testing.T) {
	desc, dev := syntheticWorkload()
	toks, err := ParseDriver(synthSource)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []Backend{BackendBlock, BackendInterp} {
		r, err := desc.NewRig()
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Boot(BootInput{Tokens: toks, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != kernel.OutcomeBoot {
			t.Fatalf("%s: outcome = %v (%v)", backend, res.Outcome, res.RunErr)
		}
		if len(res.Console) == 0 || res.Console[0] != "synthetic: probed" {
			t.Errorf("%s: console = %v", backend, res.Console)
		}
		// Rig.Reset runs the descriptor's hook and rewinds the kernel.
		r.Reset()
		if len(r.Kern.ConsoleView()) != 0 {
			t.Errorf("%s: console after Reset = %v", backend, r.Kern.ConsoleView())
		}
	}
	if dev.builds != 2 || dev.runs != 2 || dev.resets != 2 {
		t.Errorf("fresh-rig boots: builds=%d runs=%d resets=%d, want 2/2/2",
			dev.builds, dev.runs, dev.resets)
	}

	// A worker's rig pool builds the workload's rig once and Resets it
	// on every later request — the campaign hot-path contract.
	rigs := make(rigSet)
	r1, err := rigs.rigFor("busmouse_c", "")
	if err != nil {
		t.Fatal(err)
	}
	r1.Kern.Printk("stale")
	r2, err := rigs.rigFor("busmouse_devil", "")
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("worker built a second rig for the busmouse pair instead of reusing the first")
	}
	if len(r2.Kern.ConsoleView()) != 0 {
		t.Errorf("reused rig not Reset: console = %v", r2.Kern.ConsoleView())
	}
}

// TestRegistryValidation: every workload of the fixed table carries a
// name, drivers and the Build and Run hooks, and names and drivers are
// unique across both namespaces — NewRig resolves either, so a driver
// may not shadow another workload's name, nor a name another workload's
// driver, and each driver routes to exactly one workload.
func TestRegistryValidation(t *testing.T) {
	claimed := make(map[string]string) // name or driver -> owning workload
	claim := func(key, owner string) {
		if prev, ok := claimed[key]; ok {
			t.Errorf("%q is claimed by workload %s and by workload %s", key, prev, owner)
		}
		claimed[key] = owner
	}
	for _, d := range Workloads() {
		if d.Name == "" || len(d.Drivers) == 0 || d.Build == nil || d.Run == nil {
			t.Errorf("workload %q: want a name, drivers, Build and Run (drivers %v, Build %t, Run %t)",
				d.Name, d.Drivers, d.Build != nil, d.Run != nil)
		}
		claim(d.Name, d.Name)
		for _, drv := range d.Drivers {
			claim(drv, d.Name)
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
// whose descriptor lists it, and the table's workloads carry the
// spec/bases a Devil driver needs.
func TestRegistryCoversCorpus(t *testing.T) {
	for _, d := range Workloads() {
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
				t.Errorf("driver %s routes to %s, listed under %s", drv, back.Name, d.Name)
			}
		}
	}
}
