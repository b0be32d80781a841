package ccompile_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cdriver/cinterp"
)

// Fast-forward edge cases. The loops here read the predDev, which
// answers Steady and Burst, on an untraced bus, so the kernels skip
// iterations; the interpreter makes every read, and runBothOn diffs
// every observable and (through sameMachine) the transfer buffer, the
// bus accounting, virtual time and the device's data position.

const predPorts = `
#define PDATA 0x320
#define PSTATUS 0x321
#define PLEVEL 0x322
`

// fewerCalls requires the block backend to have skipped device calls.
func fewerCalls(t *testing.T, o outcome, what string) {
	t.Helper()
	if o.calls[1] >= o.calls[0] {
		t.Fatalf("%s: %d device calls on the block backend, %d on the interpreter: nothing was skipped",
			what, o.calls[1], o.calls[0])
	}
}

// TestForwardConditionSpans sweeps each condition operator with ++ and
// -- over u8, s8, u16 and int post locals, with starts and bounds at and
// beyond the type's limits, so spans end at the bound, at once, or at
// the wrap (which the per-iteration code then takes, until the
// watchdog trips). The poll's status never has bit 0 set; the transfer
// bursts the data port.
func TestForwardConditionSpans(t *testing.T) {
	limits := map[string][2]int64{
		"u8":  {0, math.MaxUint8},
		"s8":  {math.MinInt8, math.MaxInt8},
		"u16": {0, math.MaxUint16},
		"int": {math.MinInt32, math.MaxInt32},
	}
	skipped := 0
	for typ, lim := range limits {
		lo, hi := lim[0], lim[1]
		for _, op := range []string{"<", "<=", ">", ">=", "!="} {
			for _, post := range []string{"++", "--"} {
				src := predPorts + fmt.Sprintf(`
int poll(int start, int bound) {
	%[1]s i;
	int hits = 0;
	for (i = start; i %[2]s bound; i%[3]s) {
		if (inb(PSTATUS) & 0x01)
			hits = hits + 1;
	}
	return i * 1000 + hits;
}
int xfer(int start, int bound) {
	%[1]s i;
	u8 w;
	for (i = start; i %[2]s bound; i%[3]s) {
		w = inw(PDATA);
		kbuf_write8(i - start + 2000, w);
	}
	return i + w;
}
`, typ, op, post)
				for _, start := range []int64{lo, lo + 2, 40, hi - 3, hi} {
					for _, bound := range []int64{start - 30, start + 30, lo - 1, lo, hi, hi + 1, start} {
						for _, fn := range []string{"poll", "xfer"} {
							o := runBothOn(t, rigConfig{budget: 4000}, src, fn, intArg(start), intArg(bound))
							wantKernels(t, o, 2)
							if o.calls[1] < o.calls[0] {
								skipped++
							}
						}
					}
				}
			}
		}
	}
	if skipped < 200 {
		t.Fatalf("only %d runs skipped device calls", skipped)
	}
}

// TestForwardWatchdogInsideRun ends the budget inside a predictable
// run of each kernel shape: the watchdog must trip at exactly budget+1
// steps, with the batched charge stopping short of it.
func TestForwardWatchdogInsideRun(t *testing.T) {
	src := predPorts + `
int poll(void) {
	int t;
	for (t = 0; t < 100000; t++) {
		if (inb(PSTATUS) & 0x01)
			return t;
	}
	return -1;
}
int spin(void) {
	while (inb(PLEVEL) == 0) {
	}
	return 1;
}
int xfer(void) {
	int i;
	for (i = 0; i < 30000; i++) {
		kbuf_write16(i, inw(PDATA));
	}
	return i;
}
`
	for _, fn := range []string{"poll", "spin", "xfer"} {
		for _, budget := range []int64{1, 2, 3, 5, 8, 13, 50, 99, 100, 101, 997, 1000, 1003, 4096, 4099, 20011} {
			o := runBothOn(t, rigConfig{budget: budget}, src, fn)
			wantKernels(t, o, 3)
			if !strings.Contains(o.errText, "watchdog") || o.steps != budget+1 {
				t.Fatalf("%s at budget %d: %q after %d steps, want the watchdog at %d", fn, budget, o.errText, o.steps, budget+1)
			}
			if budget >= 1000 {
				fewerCalls(t, o, fmt.Sprintf("%s at budget %d", fn, budget))
			}
		}
	}
}

// TestForwardHorizonExpires starts polls and busy-waits while the
// status is busy: the steady horizon ends inside the run, and the read
// after it must see the flip at the same iteration as the interpreter.
func TestForwardHorizonExpires(t *testing.T) {
	src := predPorts + `
int ready(int delay) {
	int t;
	udelay(delay);
	for (t = 0; t < 5000; t++) {
		if (inb(PSTATUS) & 0x08)
			return t;
	}
	return -1;
}
int down(int delay) {
	u16 t;
	udelay(delay);
	for (t = 4000; t > 0; t--) {
		if (inb(PSTATUS) != 0x80)
			return t;
	}
	return -1;
}
int spin(int delay) {
	udelay(delay);
	while (inb(PSTATUS) & 0x80) {
	}
	return inb(PSTATUS);
}
`
	for _, fn := range []string{"ready", "down", "spin"} {
		for _, delay := range []int64{0, 1, 2, 3, 7, 500, 991, 995, 998, 999, 1000, 1001} {
			o := runBoth(t, src, fn, intArg(delay))
			wantKernels(t, o, 3)
			if o.errText != "" || o.val.I < 0 {
				t.Fatalf("%s(%d) = %d, %q", fn, delay, o.val.I, o.errText)
			}
			if delay < 500 {
				fewerCalls(t, o, fmt.Sprintf("%s(%d)", fn, delay))
			}
		}
	}
}

// TestForwardWildBurst bursts towards the end of the transfer buffer:
// the chunk must stop before the first wild offset, which the
// per-iteration code then reads and faults on, word and byte stores,
// counting up and down.
func TestForwardWildBurst(t *testing.T) {
	src := predPorts + `
int up16(int base) {
	int i;
	for (i = 0; i < 300; i++) {
		kbuf_write16(base + i * 2, inw(PDATA));
	}
	return i;
}
int down8(int base) {
	int i;
	u16 w;
	for (i = 300; i > 0; i--) {
		w = inw(PDATA);
		kbuf_write8(base + i - 250, w);
	}
	return i;
}
`
	for _, c := range []struct {
		fn   string
		base int64
		want string
	}{
		{"up16", 65536 - 2*40, "wild buffer write at 65536"},
		{"up16", 65536 - 2*40 + 1, "wild buffer write at 65536"},
		{"up16", 65536 - 2*300, ""},
		{"down8", 0, "wild buffer write at -1"},
		{"down8", 249, ""},
	} {
		o := runBoth(t, src, c.fn, intArg(c.base))
		wantKernels(t, o, 2)
		if c.want == "" && o.errText != "" || !strings.Contains(o.errText, c.want) {
			t.Fatalf("%s(%d): error %q, want %q", c.fn, c.base, o.errText, c.want)
		}
		fewerCalls(t, o, fmt.Sprintf("%s(%d)", c.fn, c.base))
	}
}

// TestForwardMaskInLocal tests a poll whose mask is a local: a
// parameter is forwarded, but the post local itself changes the test on
// every iteration and must not be.
func TestForwardMaskInLocal(t *testing.T) {
	src := predPorts + `
int wait(int mask) {
	int t;
	for (t = 0; t < 3000; t++) {
		if (inb(PSTATUS) & mask)
			return t;
	}
	return -1;
}
int self(void) {
	int t;
	for (t = 0; t < 3000; t++) {
		if (inb(PSTATUS) & t)
			return t;
	}
	return -1;
}
int level(int lim) {
	int t;
	int m;
	outb(0x21, PLEVEL);
	m = lim;
	for (t = 0; t < 3000; t++) {
		if (inb(PLEVEL) > m)
			return t;
	}
	return -1;
}
`
	for _, c := range []struct {
		fn   string
		arg  []int64
		want int64
	}{
		{"wait", []int64{0x08}, -2},
		{"wait", []int64{0x01}, -1},
		{"self", nil, 128},
		{"level", []int64{0x20}, 0},
		{"level", []int64{0x21}, -1},
	} {
		var args []cinterp.Value
		for _, a := range c.arg {
			args = append(args, intArg(a))
		}
		o := runBoth(t, src, c.fn, args...)
		wantKernels(t, o, 3)
		if c.want != -2 && o.val.I != c.want {
			t.Fatalf("%s%v = %d, want %d", c.fn, c.arg, o.val.I, c.want)
		}
		if c.fn == "wait" {
			fewerCalls(t, o, fmt.Sprintf("wait%v", c.arg))
		}
	}
}

// TestForwardNotElse pins a poll with an else branch: the else runs on
// every iteration the test fails, so no iteration may be skipped.
func TestForwardNotElse(t *testing.T) {
	src := predPorts + `
int f(void) {
	int t;
	int n = 0;
	for (t = 0; t < 2000; t++) {
		if (inb(PSTATUS) & 0x08) {
			break;
		} else {
			n = n + 1;
		}
	}
	return t * 10000 + n;
}
`
	o := runBoth(t, src, "f")
	wantKernels(t, o, 1)
	if o.calls[1] != o.calls[0] {
		t.Fatalf("%d device calls on the block backend, %d on the interpreter", o.calls[1], o.calls[0])
	}
}
