package experiment

import (
	"strings"
	"testing"

	"repro/internal/cdriver/ctoken"
	"repro/internal/drivers"
	"repro/internal/kernel"
)

// mutateToken loads a driver, finds the nth token matching old inside a
// tagged region, and swaps its literal (and kind, when given).
func mutateToken(t *testing.T, driver, old, new string, kind ctoken.Kind, nth int) []ctoken.Token {
	t.Helper()
	src, err := drivers.Load(driver)
	if err != nil {
		t.Fatal(err)
	}
	toks, err := ParseDriver(src.Text)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for i, tok := range toks {
		if !tok.Tagged || tok.Lit != old {
			continue
		}
		if seen < nth {
			seen++
			continue
		}
		out := make([]ctoken.Token, len(toks))
		copy(out, toks)
		out[i].Lit = new
		if kind != 0 {
			out[i].Kind = kind
		}
		return out
	}
	t.Fatalf("token %q (occurrence %d) not found in tagged region of %s", old, nth, driver)
	return nil
}

// bootTokens boots one build of an IDE driver (ide_c or ide_devil).
func bootTokens(t *testing.T, driver string, toks []ctoken.Token) *BootResult {
	t.Helper()
	res, err := BootDriver(driver, BootInput{Tokens: toks, Devil: driver == "ide_devil", Budget: ExperimentBudget})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOutcomeHalt: corrupting the reset-release control byte leaves the
// drive busy; the C driver's bounded ready-wait panics.
func TestOutcomeHalt(t *testing.T) {
	// SEL_DEFAULT -> SEL_LBA swap is harmless; instead redirect the status
	// read: IDE_STATUS (0x1f7) -> 0x1f1 (error register, reads 0 = never
	// READY) makes wait_ready time out and panic.
	toks := mutateToken(t, "ide_c", "0x1f7", "0x1f1", 0, 0)
	res := bootTokens(t, "ide_c", toks)
	if res.Outcome != kernel.OutcomeHalt && res.Outcome != kernel.OutcomeInfiniteLoop {
		t.Errorf("outcome = %v (%v), want Halt or InfiniteLoop", res.Outcome, res.RunErr)
	}
}

// TestOutcomeCrash: a stray write to the interrupt controller wedges the
// machine silently.
func TestOutcomeCrash(t *testing.T) {
	// IDE_CONTROL 0x3f6 -> 0x21 (PIC mask register).
	toks := mutateToken(t, "ide_c", "0x3f6", "0x21", 0, 0)
	res := bootTokens(t, "ide_c", toks)
	if res.Outcome != kernel.OutcomeCrash {
		t.Errorf("outcome = %v (%v), want Crash", res.Outcome, res.RunErr)
	}
}

// TestOutcomeInfiniteLoop: redirecting the status port to a floating port
// makes BSY read as stuck-on; the unbounded busy-wait never exits.
func TestOutcomeInfiniteLoop(t *testing.T) {
	toks := mutateToken(t, "ide_c", "0x1f7", "0x2f7", 0, 0)
	res := bootTokens(t, "ide_c", toks)
	if res.Outcome != kernel.OutcomeInfiniteLoop {
		t.Errorf("outcome = %v (%v), want InfiniteLoop", res.Outcome, res.RunErr)
	}
}

// TestOutcomeDamagedBoot: a wrong shift in the transfer-buffer offset
// makes multi-sector reads overlap in the buffer; the single-sector mount
// metadata reads survive, so the boot completes with corrupt files.
func TestOutcomeDamagedBoot(t *testing.T) {
	// In "(s << 9) + i + i", 9 -> 8 halves the per-sector stride.
	toks := mutateToken(t, "ide_c", "9", "8", 0, 0)
	res := bootTokens(t, "ide_c", toks)
	if res.Outcome != kernel.OutcomeDamagedBoot {
		t.Errorf("outcome = %v (%v), want DamagedBoot", res.Outcome, res.RunErr)
		for _, l := range res.Console {
			t.Logf("console: %s", l)
		}
	}
}

// TestOutcomeRuntimeCheck: swapping a dil_eq constant across Devil types
// compiles (dil_eq is polymorphic) and dies on the run-time type check.
func TestOutcomeRuntimeCheck(t *testing.T) {
	// In wait_not_busy: dil_eq(get_Busy(), BUSY) with BUSY -> MASTER.
	toks := mutateToken(t, "ide_devil", "BUSY", "MASTER", 0, 0)
	res := bootTokens(t, "ide_devil", toks)
	if res.CompileDetected() {
		t.Fatalf("unexpected compile error: %v", res.CompileErrors[0])
	}
	if res.Outcome != kernel.OutcomeRuntimeCheck {
		t.Errorf("outcome = %v (%v), want RuntimeCheck", res.Outcome, res.RunErr)
	}
	// The diagnostic names the mechanism, like the paper's dil_assert.
	if res.RunErr == nil || !strings.Contains(res.RunErr.Error(), "Devil assertion failed") {
		t.Errorf("run error = %v, want a Devil assertion", res.RunErr)
	}
}

// TestOutcomeCompileCheck: passing a constant of the wrong Devil type to a
// setter is a compile-time type error in the strict world.
func TestOutcomeCompileCheck(t *testing.T) {
	toks := mutateToken(t, "ide_devil", "MASTER", "CMD_IDENTIFY", 0, 0)
	res := bootTokens(t, "ide_devil", toks)
	if !res.CompileDetected() {
		t.Fatalf("mutant compiled; outcome %v", res.Outcome)
	}
	found := false
	for _, e := range res.CompileErrors {
		if strings.Contains(e.Error(), "incompatible type") {
			found = true
		}
	}
	if !found {
		t.Errorf("no type diagnostic: %v", res.CompileErrors)
	}
}

// TestOutcomeDeadCode: a mutation inside the never-executed write-fault
// arm boots cleanly and its line is uncovered.
func TestOutcomeDeadCode(t *testing.T) {
	// The write-fault arm of end_of_command never runs on healthy
	// hardware; its printk line must stay uncovered through a clean boot.
	src, err := drivers.Load("ide_devil")
	if err != nil {
		t.Fatal(err)
	}
	toks, err := ParseDriver(src.Text)
	if err != nil {
		t.Fatal(err)
	}
	idx := -1
	for i, tok := range toks {
		if tok.Kind == ctoken.String && tok.Lit == "ide0: write fault" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("write-fault arm not found")
	}
	line := toks[idx].Pos.Line
	res := bootTokens(t, "ide_devil", toks)
	if res.Outcome != kernel.OutcomeBoot {
		t.Fatalf("baseline boot failed: %v", res.Outcome)
	}
	if res.Coverage.Covered(line) {
		t.Errorf("write-fault arm (line %d) unexpectedly executed", line)
	}
}

// TestOutcomeSilentBoot: widening the timeout constant changes nothing
// observable — the worst case.
func TestOutcomeSilentBoot(t *testing.T) {
	toks := mutateToken(t, "ide_c", "20000", "60000", 0, 0)
	res := bootTokens(t, "ide_c", toks)
	if res.Outcome != kernel.OutcomeBoot {
		t.Errorf("outcome = %v (%v), want Boot", res.Outcome, res.RunErr)
	}
}

// TestPartitionTableLossScenario reproduces the paper's anecdote: a mutant
// that redirects the superblock write to LBA 0 destroys the partition
// table ("required re-formatting the disk").
func TestPartitionTableLossScenario(t *testing.T) {
	src, err := drivers.Load("ide_c")
	if err != nil {
		t.Fatal(err)
	}
	toks, err := ParseDriver(src.Text)
	if err != nil {
		t.Fatal(err)
	}
	// Each transfer path masks the LBA with three 0xff constants; the
	// write path's first one (hits[3]) is "lba & 0xff" for IDE_SECTOR.
	var hits []int
	for i, tok := range toks {
		if tok.Tagged && tok.Lit == "0xff" {
			hits = append(hits, i)
		}
	}
	if len(hits) != 6 {
		t.Fatalf("expected 6 0xff sites (3 per transfer path), got %d", len(hits))
	}
	// hits[3] is the write path's "lba & 0xff": zeroing the mask makes the
	// superblock dirty-flag write land on LBA 0 — the partition table.
	out := make([]ctoken.Token, len(toks))
	copy(out, toks)
	out[hits[3]].Lit = "0x0"
	res := bootTokens(t, "ide_c", out)
	if !res.PartitionTableLost && res.Outcome != kernel.OutcomeDamagedBoot {
		t.Errorf("outcome = %v, PT lost = %v; want damage", res.Outcome, res.PartitionTableLost)
	}
}
