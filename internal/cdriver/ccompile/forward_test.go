package ccompile_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cdriver/cinterp"
	"repro/internal/devil"
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
// bursts the data port. Each bound is a literal, so both loops hoist it
// and both kernels span; a negative bound is written `0 - N`, which the
// kernels fold to a constant.
func TestForwardConditionSpans(t *testing.T) {
	limits := map[string][2]int64{
		"u8":  {0, math.MaxUint8},
		"s8":  {math.MinInt8, math.MaxInt8},
		"u16": {0, math.MaxUint16},
		"int": {math.MinInt32, math.MaxInt32},
	}
	skipped := map[string]int{}
	for typ, lim := range limits {
		lo, hi := lim[0], lim[1]
		for _, op := range []string{"<", "<=", ">", ">=", "!="} {
			for _, post := range []string{"++", "--"} {
				for _, start := range []int64{lo, lo + 2, 40, hi - 3, hi} {
					for _, bound := range []int64{start - 30, start + 30, lo - 1, lo, hi, hi + 1, start} {
						lit := fmt.Sprint(bound)
						if bound < 0 {
							lit = fmt.Sprintf("0 - %d", -bound)
						}
						src := predPorts + fmt.Sprintf(`
int poll(int start) {
	%[1]s i;
	int hits = 0;
	for (i = start; i %[2]s %[4]s; i%[3]s) {
		if (inb(PSTATUS) & 0x01)
			hits = hits + 1;
	}
	return i * 1000 + hits;
}
int xfer(int start) {
	%[1]s i;
	u8 w;
	for (i = start; i %[2]s %[4]s; i%[3]s) {
		w = inw(PDATA);
		kbuf_write8(i - start + 2000, w);
	}
	return i + w;
}
`, typ, op, post, lit)
						for _, fn := range []string{"poll", "xfer"} {
							o := runBothOn(t, rigConfig{budget: 4000}, src, fn, intArg(start))
							wantKernels(t, o, 2)
							if o.calls[1] < o.calls[0] {
								skipped[fn]++
							}
						}
					}
				}
			}
		}
	}
	for _, fn := range []string{"poll", "xfer"} {
		if skipped[fn] < 200 {
			t.Errorf("only %d %s runs skipped device calls", skipped[fn], fn)
		}
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
		wantKernels(t, o, 2) // self's mask is its post local: no kernel
		if c.want != -2 && o.val.I != c.want {
			t.Fatalf("%s%v = %d, want %d", c.fn, c.arg, o.val.I, c.want)
		}
		if c.fn == "wait" {
			fewerCalls(t, o, fmt.Sprintf("wait%v", c.arg))
		}
	}
}

// TestForwardNotElse pins a poll with an else branch: the else runs on
// every iteration the test fails, so no iteration may be skipped, and
// the loop runs the superblock's iterations, not a kernel.
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
	wantKernels(t, o, 0)
	if o.calls[1] != o.calls[0] {
		t.Fatalf("%d device calls on the block backend, %d on the interpreter", o.calls[1], o.calls[0])
	}
}

// stubModes are the two Devil stub modes a stub fast-forward case runs
// in.
var stubModes = []devil.Mode{devil.Debug, devil.Production}

// TestForwardStubPolls runs each stubTest shape over the predSpec stubs
// in both modes, starting before, at and after predFlip: the poll must
// skip its steady iterations and see the flip at the same iteration as
// the interpreter.
func TestForwardStubPolls(t *testing.T) {
	src := predPorts + `
#define RDY 0x08
int ready(int delay) {
	int t;
	udelay(delay);
	for (t = 0; t < 5000; t++) {
		if (get_Ready())
			return t;
	}
	return -1;
}
int notbusy(int delay) {
	int t;
	udelay(delay);
	for (t = 0; t < 5000; t++) {
		if (!dil_eq(get_Busy(), BUSY))
			return t;
	}
	return -1;
}
int idle(int delay) {
	int t;
	udelay(delay);
	for (t = 0; t < 5000; t++) {
		if (dil_eq(get_Busy(), IDLE))
			return t;
	}
	return -1;
}
int status(int delay) {
	int t;
	udelay(delay);
	for (t = 0; t < 5000; t++) {
		if (get_Status() & RDY)
			return t;
	}
	return -1;
}
int unbusy(int delay) {
	u16 t;
	udelay(delay);
	for (t = 4000; t > 0; t--) {
		if (!(get_Status() & 0x80))
			return t;
	}
	return -1;
}
int both(int delay) {
	int t;
	outb(0x21, PLEVEL);
	udelay(delay);
	for (t = 0; t < 5000; t++) {
		if (get_Both() != 0x18)
			return t;
	}
	return -1;
}
`
	for _, mode := range stubModes {
		for _, fn := range []string{"ready", "notbusy", "idle", "status", "unbusy", "both"} {
			for _, delay := range []int64{0, 1, 3, 500, 991, 998, 999, 1000, 1001, 2000} {
				o := runBothOn(t, rigConfig{stubs: mode}, src, fn, intArg(delay))
				wantKernels(t, o, 6)
				if o.errText != "" || o.val.I < 0 {
					t.Fatalf("%s %s(%d) = %d, %q", mode, fn, delay, o.val.I, o.errText)
				}
				if delay < 500 {
					fewerCalls(t, o, fmt.Sprintf("%s %s(%d)", mode, fn, delay))
				}
			}
		}
	}
}

// TestForwardStubSteadyValues polls values that never change: a bare
// enum get (a Devil value is never true), a signed level against a
// bound and under `!`, a mask in a parameter and the post local as the mask (which
// must not forward), and a register with a pre-action (which must not
// predict: its pre-action writes on every read).
func TestForwardStubSteadyValues(t *testing.T) {
	src := predPorts + `
int enumget(void) {
	int t;
	for (t = 0; t < 3000; t++) {
		if (get_Busy())
			return t;
	}
	return -1;
}
int level(int v, int lim) {
	int t;
	outb(v, PLEVEL);
	for (t = 0; t < 3000; t++) {
		if (get_Level() < lim)
			return t;
	}
	return -1;
}
int notlevel(int v) {
	int t;
	outb(v, PLEVEL);
	for (t = 0; t < 3000; t++) {
		if (!get_Level())
			return t;
	}
	return -1;
}
int masked(int mask) {
	int t;
	udelay(2000);
	for (t = 0; t < 3000; t++) {
		if (get_Status() & mask)
			return t;
	}
	return -1;
}
int self(void) {
	int t;
	udelay(2000);
	for (t = 0; t < 3000; t++) {
		if (get_Status() & t)
			return t;
	}
	return -1;
}
int win(void) {
	int t;
	for (t = 0; t < 3000; t++) {
		if (get_Win() & 0x40)
			return t;
	}
	return -1;
}
`
	for _, mode := range stubModes {
		for _, c := range []struct {
			fn      string
			args    []int64
			want    int64
			forward bool
		}{
			{"enumget", nil, -1, true},
			{"level", []int64{0x90, 0}, 0, false},
			{"level", []int64{0x90, -112}, -1, true},
			{"level", []int64{0x21, 0x21}, -1, true},
			{"notlevel", []int64{0x21}, -1, true},
			{"notlevel", []int64{0}, 0, false},
			{"masked", []int64{0x08}, 0, false},
			{"masked", []int64{0x80}, -1, true},
			{"self", nil, 8, false},
			{"win", nil, -1, false},
		} {
			var args []cinterp.Value
			for _, a := range c.args {
				args = append(args, intArg(a))
			}
			o := runBothOn(t, rigConfig{stubs: mode}, src, c.fn, args...)
			wantKernels(t, o, 5) // self's mask is its post local: no kernel
			what := fmt.Sprintf("%s %s%v", mode, c.fn, c.args)
			if o.errText != "" || o.val.I != c.want {
				t.Fatalf("%s = %d, %q; want %d", what, o.val.I, o.errText, c.want)
			}
			if c.forward {
				fewerCalls(t, o, what)
			} else if o.calls[1] != o.calls[0] && c.fn == "win" {
				t.Fatalf("%s: %d device calls on the block backend, %d on the interpreter", what, o.calls[1], o.calls[0])
			}
		}
	}
}

// TestForwardStubAssertions pins the debug-mode assertions a forwarded
// poll meets: an int set that the status fails after predFlip raises at
// the flip's iteration, whichever iteration the flip lands in, and a
// dil_eq against a constant of another type raises at once; production
// mode raises neither.
func TestForwardStubAssertions(t *testing.T) {
	src := predPorts + `
int phase(int delay) {
	int t;
	udelay(delay);
	for (t = 0; t < 5000; t++) {
		if (get_Phase() == 9)
			return t;
	}
	return -1;
}
int other(int delay) {
	int t;
	udelay(delay);
	for (t = 0; t < 5000; t++) {
		if (!dil_eq(get_Busy(), M1))
			return t;
	}
	return -1;
}
`
	for _, c := range []struct {
		mode devil.Mode
		fn   string
		want string
	}{
		{devil.Debug, "phase", "outside declared set"},
		{devil.Production, "phase", ""},
		{devil.Debug, "other", "different Devil types"},
		{devil.Production, "other", ""},
	} {
		for delay := int64(960); delay <= 1001; delay++ {
			o := runBothOn(t, rigConfig{stubs: c.mode}, src, c.fn, intArg(delay))
			wantKernels(t, o, 2)
			if c.want == "" && o.errText != "" || !strings.Contains(o.errText, c.want) {
				t.Fatalf("%s %s(%d): error %q, want %q", c.mode, c.fn, delay, o.errText, c.want)
			}
			if c.fn == "phase" && delay < 980 {
				fewerCalls(t, o, fmt.Sprintf("%s %s(%d)", c.mode, c.fn, delay))
			}
		}
	}
}

// TestForwardStubLateMask polls from a global initialiser before the
// mask macro is declared: the macro takes the late path, to the enum
// constant of its name (0 as an operand). The delays make the flip land
// between the superblock's iterations and the kernel, where a poll forwarded
// with the macro's value would skip the iteration that sees it.
func TestForwardStubLateMask(t *testing.T) {
	for _, mode := range stubModes {
		for delay := 960; delay <= 1001; delay++ {
			src := predPorts + fmt.Sprintf(`
int wait(int delay) {
	int t;
	udelay(delay);
	for (t = 0; t < 3000; t++) {
		if (get_Ready() > M0)
			return t;
	}
	return -1;
}
int early = wait(%d);
#define M0 1
int f(void) {
	return early;
}
`, delay)
			o := runBothOn(t, rigConfig{stubs: mode}, src, "f")
			wantKernels(t, o, 1)
			if o.errText != "" || o.val.I < 0 {
				t.Fatalf("%s at delay %d: f = %d, %q; want the poll to see the flip", mode, delay, o.val.I, o.errText)
			}
		}
	}
}

// TestForwardBlockReads bursts get_block_ reads of the 16-bit and the
// 32-bit data variable: a budget sweep that trips inside a chunk, a last
// element that lands partly off the transfer buffer, counts above the
// watchdog's room, a negative offset and an empty count, in both modes.
// The predDev's bursts stop short of every 100th read, which the element
// loop then makes.
func TestForwardBlockReads(t *testing.T) {
	src := `
int rd16(int off, int n) {
	get_block_Data(off, n);
	return n;
}
int rd32(int off, int n) {
	get_block_Wide(off, n);
	return n;
}
`
	for _, mode := range stubModes {
		for _, fn := range []string{"rd16", "rd32"} {
			elem := int64(2)
			if fn == "rd32" {
				elem = 4
			}
			for _, c := range []struct {
				budget, off, n int64
				want           string
			}{
				{0, 0, 1000, ""},
				{0, 100, 600, ""},
				{0, 65536 - 40*elem, 40, ""},
				{0, 65536 - 40*elem + 1, 40, "wild buffer write at 65536"},
				{0, 65536 - 40*elem - 1, 41, "wild buffer write at 65536"},
				{0, -2, 10, "wild buffer write at -2"},
				{0, 0, 0, ""},
				{0, 0, -5, ""},
				{9001, 0, 16000, "watchdog"},
				{1003, 0, 5000, "watchdog"},
				{50, 0, 1000, "watchdog"},
				{99, 0, 1000, "watchdog"},
				{100, 0, 1000, "watchdog"},
				{257, 0, 1000, "watchdog"},
				{300, 0, 1000, "watchdog"},
				{301, 0, 299, ""},
			} {
				o := runBothOn(t, rigConfig{stubs: mode, budget: c.budget}, src, fn, intArg(c.off), intArg(c.n))
				what := fmt.Sprintf("%s %s(%d, %d) at budget %d", mode, fn, c.off, c.n, c.budget)
				if c.want == "" && o.errText != "" || !strings.Contains(o.errText, c.want) {
					t.Fatalf("%s: error %q, want %q", what, o.errText, c.want)
				}
				if c.n >= 40 && c.off >= 0 {
					fewerCalls(t, o, what)
				}
			}
		}
	}
}
