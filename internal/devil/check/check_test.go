package check_test

import (
	"strings"
	"testing"

	"repro/internal/devil/check"
	"repro/internal/devil/parser"
)

// checkSrc parses and checks, returning the rule names of all diagnostics.
func checkSrc(t *testing.T, src string) []string {
	t.Helper()
	dev, perrs := parser.Parse(src)
	if len(perrs) != 0 {
		t.Fatalf("parse: %v", perrs)
	}
	_, errs := check.Check(dev)
	rules := make([]string, len(errs))
	for i, e := range errs {
		rules[i] = e.Rule + ": " + e.Msg
	}
	return rules
}

func expectRule(t *testing.T, src, rule string) {
	t.Helper()
	rules := checkSrc(t, src)
	for _, r := range rules {
		if strings.HasPrefix(r, rule) {
			return
		}
	}
	t.Errorf("no %q diagnostic; got %v", rule, rules)
}

// wrap builds a minimal valid device around the given body.
func wrap(body string) string {
	return "device d (a : bit[8] port @ {0..1}) {\n" + body + "\n}"
}

func TestValidSpecPasses(t *testing.T) {
	src := wrap(`
		register r = a @ 0 : bit[8];
		register s = a @ 1, mask '1100....' : bit[8];
		variable V = r : int(8);
		variable W = s[3..0] : int(4);
	`)
	if rules := checkSrc(t, src); len(rules) != 0 {
		t.Errorf("valid spec rejected: %v", rules)
	}
}

func TestUniquenessRules(t *testing.T) {
	expectRule(t, `device d (a : bit[8] port @ {0..0}, a : bit[8] port @ {0..0}) {
		register r = a @ 0 : bit[8];
		variable V = r : int(8);
	}`, "uniqueness")
	expectRule(t, wrap(`
		register r = a @ 0 : bit[8];
		register s = a @ 1 : bit[8];
		variable V = r : int(8);
		variable V = s : int(8);
	`), "uniqueness")
	expectRule(t, wrap(`
		register r = a @ 0 : bit[8];
		register s = a @ 1, mask '0000000.' : bit[8];
		variable V = r : int(8);
		variable F = s[0] : { ON => '1', ON => '0' };
	`), "uniqueness")
}

func TestSizeRules(t *testing.T) {
	// Register size vs port width.
	expectRule(t, wrap(`
		register r = a @ 0 : bit[16];
		register f = a @ 1 : bit[8];
		variable V = r : int(16);
		variable W = f : int(8);
	`), "size")
	// Port offset outside the declared range.
	expectRule(t, wrap(`
		register r = a @ 0 : bit[8];
		register s = a @ 7 : bit[8];
		variable V = r : int(8);
		variable W = s : int(8);
	`), "size")
	// Fragment bit outside the register.
	expectRule(t, wrap(`
		register r = a @ 0 : bit[8];
		register s = a @ 1 : bit[8];
		variable V = r[9] : bool;
		variable W = s : int(8);
	`), "size")
	// Enum pattern width vs variable width.
	expectRule(t, wrap(`
		register r = a @ 0, mask '0000000.' : bit[8];
		register s = a @ 1 : bit[8];
		variable F = r[0] : { ON => '11', OFF => '00' };
		variable W = s : int(8);
	`), "size")
	// Set value not representable.
	expectRule(t, wrap(`
		register r = a @ 0, mask '000000..' : bit[8];
		register s = a @ 1 : bit[8];
		variable F = r[1..0] : int {0, 9};
		variable W = s : int(8);
	`), "size")
}

func TestAttributeRules(t *testing.T) {
	// Read mapping on a write-only variable.
	expectRule(t, wrap(`
		register r = write a @ 0, mask '0000000.' : bit[8];
		register s = a @ 1 : bit[8];
		variable F = r[0] : { ON <=> '1', OFF <=> '0' };
		variable W = s : int(8);
	`), "attribute")
	// Pre-action on an unwritable variable.
	expectRule(t, `device d (a : bit[8] port @ {0..2}) {
		register src = read a @ 0, mask '000000..' : bit[8];
		variable ro = src[1..0] : int(2);
		register g = read a @ 1, pre {ro = 1} : bit[8];
		register h = a @ 2 : bit[8];
		variable V = g : int(8);
		variable W = h : int(8);
	}`, "attribute")
}

func TestNoOmissionRules(t *testing.T) {
	// Unused port offset.
	expectRule(t, `device d (a : bit[8] port @ {0..3}) {
		register r = a @ 0 : bit[8];
		variable V = r : int(8);
	}`, "no-omission")
	// Register not used by any variable.
	expectRule(t, wrap(`
		register r = a @ 0 : bit[8];
		register unused = a @ 1 : bit[8];
		variable V = r : int(8);
	`), "no-omission")
	// Relevant register bit unused.
	expectRule(t, wrap(`
		register r = a @ 0 : bit[8];
		register s = a @ 1 : bit[8];
		variable V = r[7..1] : int(7);
		variable W = s : int(8);
	`), "no-omission")
	// Non-exhaustive read mapping.
	expectRule(t, wrap(`
		register r = a @ 0, mask '000000..' : bit[8];
		register s = a @ 1 : bit[8];
		variable F = r[1..0] : { A <=> '00', B <=> '01' };
		variable W = s : int(8);
	`), "no-omission")
}

func TestNoOverlapRules(t *testing.T) {
	// Two registers writing one port without disjoint masks/pre-actions.
	expectRule(t, wrap(`
		register r = write a @ 0 : bit[8];
		register q = write a @ 0 : bit[8];
		register s = a @ 1 : bit[8];
		variable V = r : int(8);
		variable Q = q : int(8);
		variable W = s : int(8);
	`), "no-overlap")
	// Overlapping masks do not license sharing.
	expectRule(t, wrap(`
		register r = write a @ 0, mask '....0000' : bit[8];
		register q = write a @ 0, mask '00......' : bit[8];
		register s = a @ 1 : bit[8];
		variable V = r[7..4] : int(4);
		variable Q = q[5..0] : int(6);
		variable W = s : int(8);
	`), "no-overlap")
	// One register bit feeding two variables.
	expectRule(t, wrap(`
		register r = a @ 0 : bit[8];
		register s = a @ 1 : bit[8];
		variable V = r[7..3] : int(5);
		variable X = r[4..0] : int(5);
		variable W = s : int(8);
	`), "no-overlap")
}

func TestDisjointPreActionsAllowPortSharing(t *testing.T) {
	src := `device d (a : bit[8] port @ {0..1}) {
		register ctl = write a @ 1, mask '1..00000' : bit[8];
		private variable idx = ctl[6..5] : int(2);
		register w0 = read a @ 0, pre {idx = 0} : bit[8];
		register w1 = read a @ 0, pre {idx = 1} : bit[8];
		variable A = w0 : int(8);
		variable B = w1 : int(8);
	}`
	if rules := checkSrc(t, src); len(rules) != 0 {
		t.Errorf("disjoint pre-actions rejected: %v", rules)
	}
}

func TestReadWriteSplitPortAllowed(t *testing.T) {
	// One port read by one register and written by another is legal.
	src := `device d (a : bit[8] port @ {0..0}) {
		register st = read a @ 0 : bit[8];
		register cmd = write a @ 0 : bit[8];
		variable S = st, volatile : int(8);
		variable C = cmd : int(8);
	}`
	if rules := checkSrc(t, src); len(rules) != 0 {
		t.Errorf("read/write port split rejected: %v", rules)
	}
}

func TestTypeIDsAreStable(t *testing.T) {
	src := wrap(`
		register r = a @ 0 : bit[8];
		register s = a @ 1 : bit[8];
		variable V = r : int(8);
		variable W = s : int(8);
	`)
	dev, _ := parser.Parse(src)
	info, errs := check.Check(dev)
	if len(errs) != 0 {
		t.Fatalf("check: %v", errs)
	}
	if info.TypeIDs["V"] != 1 || info.TypeIDs["W"] != 2 {
		t.Errorf("type ids: %v", info.TypeIDs)
	}
	if info.Variables["V"].Width != 8 {
		t.Errorf("V width = %d", info.Variables["V"].Width)
	}
}

// TestPortRangeBounded: an oversized port offset range is one size error,
// not one no-omission diagnostic per unused offset.
func TestPortRangeBounded(t *testing.T) {
	rules := checkSrc(t, `device d (a : bit[8] port @ {0..4294967295}) {
		register r = a @ 0 : bit[8];
		variable V = r : int(8);
	}`)
	if len(rules) != 1 || !strings.HasPrefix(rules[0], "size: port a: offset range") {
		t.Errorf("diagnostics = %v", rules)
	}
}
