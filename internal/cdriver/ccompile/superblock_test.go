package ccompile_test

import (
	"testing"

	"repro/internal/cdriver/ccompile"
	"repro/internal/cdriver/cinterp"
)

// Loop-superblock edge cases: every control-flow shape that can break a
// fused loop out of its lean fast path must stay byte-identical — value,
// console, coverage and step count — between the interpreter and the
// block backend. runBoth enforces all four.

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
	in, err := ccompile.NewIncr(prog, r.kern, r.bus, nil, nil)
	if err != nil {
		t.Fatalf("NewIncr: %v", err)
	}
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
