package ccompile_test

import (
	"strings"
	"testing"

	"repro/internal/cdriver/ccompile"
	"repro/internal/cdriver/cinterp"
)

// Loop-superblock edge cases: every control-flow shape that can leave a
// superblock iteration early must stay byte-identical — value, console,
// coverage and step count — between the interpreter and the block
// backend. runBoth enforces all four.

func intArg(v int64) cinterp.Value { return cinterp.Value{Kind: cinterp.ValInt, I: v} }

func TestSuperblockBreak(t *testing.T) {
	src := `
int find(int limit) {
	int i = 0;
	int acc = 0;
	while (i < 100) {
		acc = acc + i;
		if (acc > limit) {
			break;
		}
		i = i + 1;
	}
	return i;
}
`
	out := runBoth(t, src, "find", intArg(10))
	if out.val.I != 5 {
		t.Fatalf("find(10) = %d, want 5", out.val.I)
	}
}

func TestSuperblockContinue(t *testing.T) {
	src := `
int odds(int n) {
	int sum = 0;
	int i;
	for (i = 0; i < n; i = i + 1) {
		if ((i % 2) == 0) {
			continue;
		}
		sum = sum + i;
	}
	return sum;
}
`
	out := runBoth(t, src, "odds", intArg(10))
	if out.val.I != 25 {
		t.Fatalf("odds(10) = %d, want 25", out.val.I)
	}
}

func TestSuperblockNested(t *testing.T) {
	src := `
int grid(int n) {
	int total = 0;
	int i;
	for (i = 0; i < n; i = i + 1) {
		int j = 0;
		while (j < n) {
			if (i == j) {
				j = j + 1;
				continue;
			}
			total = total + 1;
			j = j + 1;
		}
		if (total > 1000) {
			break;
		}
	}
	return total;
}
`
	out := runBoth(t, src, "grid", intArg(7))
	if out.val.I != 42 {
		t.Fatalf("grid(7) = %d, want 42", out.val.I)
	}
}

func TestSuperblockZeroIterations(t *testing.T) {
	src := `
int skip(int n) {
	int count = 0;
	while (n > 10) {
		count = count + 1;
		n = n - 1;
	}
	for (; n > 10; n = n - 1) {
		count = count + 1;
	}
	return count;
}
`
	out := runBoth(t, src, "skip", intArg(3))
	if out.val.I != 0 {
		t.Fatalf("skip(3) = %d, want 0", out.val.I)
	}
	if out.steps == 0 {
		t.Fatalf("zero-iteration loops still charge their predicate steps")
	}
}

func TestSuperblockDoWhile(t *testing.T) {
	src := `
int atleastonce(int n) {
	int count = 0;
	do {
		count = count + 1;
		n = n - 1;
	} while (n > 0);
	return count;
}
`
	out := runBoth(t, src, "atleastonce", intArg(0))
	if out.val.I != 1 {
		t.Fatalf("atleastonce(0) = %d, want 1", out.val.I)
	}
}

// TestSuperblockRefusedAfterPatch mutates a fused loop's predicate
// through the incremental front end and requires (a) the patched body to
// agree with a from-scratch compile of the spliced program and (b) the
// patch to have re-fused the loop into a superblock rather than fall
// back to per-statement closures.
func TestSuperblockRefusedAfterPatch(t *testing.T) {
	src := `
int sum(int n) {
	int acc = 0;
	int i = 0;
	while (i < n) {
		acc = acc + i;
		i = i + 1;
	}
	return acc;
}
`
	prog, env := parseChecked(t, src)
	r := newRig()
	in := ccompile.NewIncr(prog, r.kern, r.bus, nil, nil)
	idx := declIdx(t, prog, "sum")
	// The cmut-style predicate mutation: relational operator flipped to
	// "<=", one extra iteration.
	d := parseDecl(t, prog, env, `
int sum(int n) {
	int acc = 0;
	int i = 0;
	while (i <= n) {
		acc = acc + i;
		i = i + 1;
	}
	return acc;
}
`)
	got := patchAndCall(t, in, prog, idx, d, "sum", intArg(4))
	if got.I != 10 {
		t.Fatalf("mutated sum(4) = %d, want 10", got.I)
	}
	if st := in.PatchStats(); st.Superblocks == 0 {
		t.Fatalf("patch did not re-fuse the loop: stats %+v", st)
	}
}

// directFlowSrc holds loops whose body leaves through a direct break,
// continue or return: a bare body, the last statement of a run, and a
// flow in mid-run after an if segment, in for and while. Such a body
// never completes an iteration, so it never licenses a kernel.
const directFlowSrc = `
int g;
int tick(void) { g = g + 1; return g; }
int forBreakBare(int n) {
	int i;
	for (i = 0; i < n; i++)
		break;
	return i;
}
int whileBreakBare(int n) {
	while (n > 0)
		break;
	return n;
}
int forContinueBare(int n) {
	int i;
	for (i = 0; i < n; i++)
		continue;
	return i;
}
int whileContinueBare(int n) {
	g = 0;
	while (tick() < n)
		continue;
	return g;
}
int forReturnBare(int n) {
	int i;
	for (i = 0; i < n; i++)
		return i + 7;
	return -1;
}
int whileReturnBare(int n) {
	while (n > 0)
		return n * 3;
	return -1;
}
int forBreakLast(int n) {
	int acc = 0;
	int i;
	for (i = 0; i < n; i++) {
		acc = acc + i;
		acc = acc * 2;
		break;
	}
	return acc * 100 + i;
}
int whileBreakLast(int n) {
	int acc = 1;
	while (n > 0) {
		acc = acc + n;
		n = n - 1;
		break;
	}
	return acc * 100 + n;
}
int forContinueLast(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) {
		acc = acc + i;
		acc = acc * 2;
		continue;
	}
	return acc;
}
int whileContinueLast(int n) {
	int acc = 0;
	while (n > 0) {
		acc = acc + n;
		n = n - 1;
		continue;
	}
	return acc * 100 + n;
}
int forReturnLast(int n) {
	int acc = 5;
	for (int i = 0; i < n; i++) {
		acc = acc + i;
		return acc;
	}
	return -1;
}
int whileReturnLast(int n) {
	while (n > 0) {
		n = n - 2;
		return n;
	}
	return -1;
}
int forBreakMid(int n) {
	int acc = 0;
	int i;
	for (i = 0; i < n; i++) {
		if (i == 0) {
			acc = acc + 100;
		}
		acc = acc + 1;
		break;
		acc = acc + 1000;
	}
	return acc * 100 + i;
}
int whileBreakMid(int n) {
	int acc = 0;
	while (n > 0) {
		if (n > 2) {
			acc = acc + 100;
		}
		n = n - 1;
		break;
		acc = acc + 1000;
	}
	return acc * 100 + n;
}
int forContinueMid(int n) {
	int acc = 0;
	int i;
	for (i = 0; i < n; i++) {
		if (i == 2) {
			acc = acc + 100;
		}
		acc = acc + i;
		continue;
		acc = acc + 1000;
	}
	return acc * 100 + i;
}
int whileContinueMid(int n) {
	int acc = 0;
	while (n > 0) {
		if (n == 3) {
			acc = acc + 100;
		}
		n = n - 1;
		continue;
		acc = acc + 1000;
	}
	return acc * 100 + n;
}
int forReturnMid(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) {
		if (i == 0) {
			acc = acc + 100;
		}
		acc = acc + 1;
		return acc;
		acc = acc + 1000;
	}
	return -1;
}
int whileReturnMid(int n) {
	int acc = 0;
	while (n > 0) {
		if (n < 10) {
			acc = acc + 100;
		}
		acc = acc + n;
		return acc;
		acc = acc + 1000;
	}
	return -1;
}
`

// directFlowWant is each directFlowSrc function's result at n = 5.
var directFlowWant = map[string]int64{
	"forBreakBare": 0, "whileBreakBare": 5,
	"forContinueBare": 5, "whileContinueBare": 5,
	"forReturnBare": 7, "whileReturnBare": 15,
	"forBreakLast": 0, "whileBreakLast": 604,
	"forContinueLast": 52, "whileContinueLast": 1500,
	"forReturnLast": 5, "whileReturnLast": 3,
	"forBreakMid": 10100, "whileBreakMid": 10004,
	"forContinueMid": 11005, "whileContinueMid": 10000,
	"forReturnMid": 101, "whileReturnMid": 105,
}

// TestSuperblockDirectFlow runs every directFlowSrc loop on both
// backends: at the default budget with its expected result, and over a
// watchdog budget sweep that trips the watchdog at each of the run's
// charges.
func TestSuperblockDirectFlow(t *testing.T) {
	for fn, want := range directFlowWant {
		t.Run(fn, func(t *testing.T) {
			o := runBoth(t, directFlowSrc, fn, intArg(5))
			if o.errText != "" || o.val.I != want {
				t.Fatalf("%s(5) = %d (%q), want %d", fn, o.val.I, o.errText, want)
			}
			for budget := int64(1); budget < o.steps; budget++ {
				b := runBothOn(t, rigConfig{budget: budget}, directFlowSrc, fn, intArg(5))
				if !strings.Contains(b.errText, "watchdog") || b.steps != budget+1 {
					t.Fatalf("%s at budget %d: %q after %d steps, want the watchdog at %d", fn, budget, b.errText, b.steps, budget+1)
				}
			}
		})
	}
}
