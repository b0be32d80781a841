package experiment

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/drivers"
	"repro/internal/kernel"
)

// TestScenarioRegistryValidation: every scenario of the table has a
// Transform and a non-empty name, unique and free of the ":" parameter
// separator parseScenario cuts at, and each parses by its own name.
func TestScenarioRegistryValidation(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range Scenarios() {
		if d.Name == "" || strings.ContainsRune(d.Name, ':') || d.Transform == nil {
			t.Errorf("scenario %q: want a name without ':' and a Transform (Transform %t)", d.Name, d.Transform != nil)
		}
		if seen[d.Name] {
			t.Errorf("scenario %q appears twice in the table", d.Name)
		}
		seen[d.Name] = true
		if sc, _, err := parseScenario(d.Name); err != nil || sc != d {
			t.Errorf("parseScenario(%q) = %v, %v", d.Name, sc, err)
		}
	}
}

// TestScenarioParamErrors: the builtin scenarios reject out-of-range and
// non-numeric parameters, pristine rejects any parameter, and an unknown
// scenario name lists what is known.
func TestScenarioParamErrors(t *testing.T) {
	for _, bad := range []string{
		"flaky-bus:0", "flaky-bus:34", "flaky-bus:x", "flaky-bus:-1",
		"timing:0", "timing:4097", "timing:fast",
		"pristine:5",
	} {
		if _, _, err := parseScenario(bad); err == nil {
			t.Errorf("parseScenario(%q) accepted", bad)
		}
	}
	_, _, err := parseScenario("flaky-buss")
	if err == nil || !strings.Contains(err.Error(), "flaky-bus") {
		t.Errorf("unknown-scenario error %v does not list the known names", err)
	}
	for _, good := range []string{"pristine", "flaky-bus", "flaky-bus:33", "timing", "timing:4096"} {
		if _, _, err := parseScenario(good); err != nil {
			t.Errorf("parseScenario(%q) = %v", good, err)
		}
	}
}

// TestScenarioRigArming: pristine cells get no injector (byte-for-byte
// the classic rig); flaky-bus and timing cells arm one on both the bus
// and the rig, and distinct cells get distinct rigs while one cell's rig
// is reused.
func TestScenarioRigArming(t *testing.T) {
	rigs := rigSet{}
	pristine, err := rigs.rigFor("busmouse_devil", "")
	if err != nil {
		t.Fatal(err)
	}
	if pristine.Injector != nil || pristine.Scenario != "" {
		t.Error("pristine rig carries an injector")
	}
	alias, err := rigs.rigFor("busmouse_devil", "pristine")
	if err != nil {
		t.Fatal(err)
	}
	if alias.Injector != nil {
		t.Error(`rigFor(driver, "pristine") armed an injector`)
	}

	for _, sc := range []string{"flaky-bus:10", "timing:16"} {
		r, err := rigs.rigFor("busmouse_devil", sc)
		if err != nil {
			t.Fatal(err)
		}
		if r.Injector == nil {
			t.Fatalf("scenario %s rig has no injector", sc)
		}
		if r.Bus.Injector() != r.Injector {
			t.Errorf("scenario %s: bus and rig disagree on the injector", sc)
		}
		if r.Scenario != sc {
			t.Errorf("scenario %s rig labelled %q", sc, r.Scenario)
		}
		if r == pristine {
			t.Errorf("scenario %s shares the pristine rig", sc)
		}
		again, err := rigs.rigFor("busmouse_devil", sc)
		if err != nil {
			t.Fatal(err)
		}
		if again != r {
			t.Errorf("scenario %s cell rebuilt its rig instead of reusing it", sc)
		}
	}
}

// TestScenarioBootDeterminism is the seeding contract behind the whole
// matrix: booting the same mutant stream with the same FaultSeed on a
// fault-injected rig is byte-identical — console, steps, outcome and
// injected-fault counts — while a different seed genuinely changes the
// fault pattern.
func TestScenarioBootDeterminism(t *testing.T) {
	src, err := drivers.Load("busmouse_devil")
	if err != nil {
		t.Fatal(err)
	}
	toks, err := ParseDriver(src.Text)
	if err != nil {
		t.Fatal(err)
	}
	seed := campaign.Task{Driver: "busmouse_devil", Mutant: 12, Scenario: "flaky-bus:25"}.FaultSeed()

	boot := func(seed uint64) (*BootResult, [3]uint64) {
		t.Helper()
		rigs := rigSet{}
		r, err := rigs.rigFor("busmouse_devil", "flaky-bus:25")
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Boot(BootInput{Tokens: toks, Devil: src.Devil, FaultSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		drops, dups, stales := r.Injector.Stats()
		return res, [3]uint64{drops, dups, stales}
	}

	a, fa := boot(seed)
	b, fb := boot(seed)
	if !reflect.DeepEqual(a.Console, b.Console) || a.Steps != b.Steps || a.Outcome != b.Outcome {
		t.Errorf("same-seed boots differ: steps %d vs %d, outcome %v vs %v",
			a.Steps, b.Steps, a.Outcome, b.Outcome)
	}
	if fa != fb {
		t.Errorf("same-seed fault counts differ: %v vs %v", fa, fb)
	}
	if fa == [3]uint64{} {
		t.Error("flaky-bus:25 injected no faults at all — the scenario is inert")
	}

	other := campaign.Task{Driver: "busmouse_devil", Mutant: 13, Scenario: "flaky-bus:25"}.FaultSeed()
	_, fc := boot(other)
	if fc == fa {
		t.Logf("note: seeds %d and %d produced identical fault counts %v", seed, other, fa)
	}
}

// TestScenarioWallDeadline: the wall-clock budget is armed per boot and
// a boot that exceeds it dies with a DeadlineError classified as an
// infinite loop, instead of hanging the harness. The driver loops long
// enough to cross the 4096-step deadline-poll interval but stays far
// inside the step watchdog, so the failure can only come from the wall
// clock — the budget is made impossibly small so even one poll trips it.
func TestScenarioWallDeadline(t *testing.T) {
	const loopSource = `
int probe(void)
{
    int i;
    int acc;
    acc = 0;
    for (i = 0; i < 20000; i = i + 1) {
        acc = acc + i;
    }
    return 0;
}
`
	desc := &WorkloadDesc{
		Name:    "wall-deadline",
		Drivers: []string{"wall-deadline_c"},
		Build:   func(r *Rig) (any, error) { return nil, nil },
		Run: func(r *Rig, ex Engine, res *BootResult) (error, bool) {
			_, err := ex.Call("probe")
			return err, false
		},
	}
	toks, err := ParseDriver(loopSource)
	if err != nil {
		t.Fatal(err)
	}
	r, err := desc.NewRig()
	if err != nil {
		t.Fatal(err)
	}

	// Without a wall budget the loop completes as a clean boot.
	res, err := r.Boot(BootInput{Tokens: toks})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != kernel.OutcomeBoot || res.Steps <= 4096 {
		t.Fatalf("baseline boot: outcome %v after %d steps; the loop must cross the poll interval",
			res.Outcome, res.Steps)
	}

	r.Reset()
	res, err = r.Boot(BootInput{Tokens: toks, WallBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	var dl *kernel.DeadlineError
	if !errors.As(res.RunErr, &dl) {
		t.Fatalf("1ns wall budget boot ended with %v, want a DeadlineError", res.RunErr)
	}
	if res.Outcome != kernel.OutcomeInfiniteLoop {
		t.Errorf("deadline expiry classified %v, want %v", res.Outcome, kernel.OutcomeInfiniteLoop)
	}
}
