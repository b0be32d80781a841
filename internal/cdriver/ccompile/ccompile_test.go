package ccompile_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cdriver/ccheck"
	"repro/internal/cdriver/ccompile"
	"repro/internal/cdriver/ccov"
	"repro/internal/cdriver/cinterp"
	"repro/internal/cdriver/cparser"
	"repro/internal/cdriver/ctypes"
	"repro/internal/devil"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/specs"
)

// rig is one freshly assembled execution context: a kernel, a bus, a
// seqDev mapped at seqBase and a predDev at predBase, and for a CDevil
// case the predSpec stubs over the predDev.
type rig struct {
	kern  *kernel.Kernel
	bus   *hw.Bus
	clock *hw.Clock
	dev   *seqDev
	pred  *predDev
	stubs *devil.Stubs
}

// rigConfig varies the machine a runBoth case boots on.
type rigConfig struct {
	strict bool  // unmapped ports fault instead of floating
	budget int64 // watchdog step budget; 0 keeps the default
	failAt int   // seqDev data reads fail from this read on; 0 never
	// stubs, when set, generates the predSpec stubs in that mode.
	stubs devil.Mode
}

func newRig() *rig { return newRigWith(rigConfig{}) }

func newRigWith(cfg rigConfig) *rig {
	clock := &hw.Clock{}
	bus := hw.NewBus()
	bus.SetFloating(!cfg.strict)
	dev := &seqDev{clock: clock, failAt: cfg.failAt}
	if err := bus.Map(seqBase, 8, dev); err != nil {
		panic(err)
	}
	pred := &predDev{clock: clock}
	if err := bus.Map(predBase, 4, pred); err != nil {
		panic(err)
	}
	kern := kernel.New(clock)
	if cfg.budget > 0 {
		kern.SetBudget(cfg.budget)
	}
	r := &rig{kern: kern, bus: bus, clock: clock, dev: dev, pred: pred}
	if cfg.stubs != 0 {
		spec, err := devil.Compile("predtest.dil", predSpec)
		if err != nil {
			panic(err)
		}
		bases := map[string]hw.Port{"data": predBase, "wide": predBase, "base": predBase,
			"stat": predBase + 1, "phase": predBase + 1, "pair": predBase + 1, "lv": predBase + 2, "win": predBase + 3}
		if r.stubs, err = spec.Generate(devil.Config{Bus: bus, Bases: bases, Mode: cfg.stubs}); err != nil {
			panic(err)
		}
	}
	return r
}

// seqBase is where newRig maps its seqDev.
const seqBase = 0x300

// seqDev is a test device whose reads advance its state, so a backend
// that reads a port once too often, too rarely or at another virtual
// time reads different values from then on:
//
//	+0 data       the next value of a sequence (reads fail from the
//	              failAt-th read on, when failAt is set)
//	+1 status     0x80 (busy) until virtual time 300, then 0x08; bit
//	              0x01 is set on every third status read
//	+2 countdown  40 minus the number of countdown reads, down to 0
//	+4 out        writes fold into a running hash
type seqDev struct {
	clock  *hw.Clock
	failAt int
	reads  [3]int
	hash   uint64
}

func (d *seqDev) Name() string { return "seq" }

func (d *seqDev) Read(off hw.Port, w hw.AccessWidth) (uint32, error) {
	if off > 2 {
		return 0, nil
	}
	d.reads[off]++
	n := d.reads[off]
	switch off {
	case 0:
		if d.failAt > 0 && n >= d.failAt {
			return 0, errors.New("data underrun")
		}
		return uint32(n*0x9e37 + 0x1234), nil
	case 1:
		var v uint32 = 0x08
		if d.clock.Now() < 300 {
			v = 0x80
		}
		if n%3 == 0 {
			v |= 0x01
		}
		return v, nil
	}
	return uint32(max(0, 40-n)), nil
}

func (d *seqDev) Write(off hw.Port, w hw.AccessWidth, v uint32) error {
	d.hash = d.hash*1000003 + uint64(off)<<40 + uint64(w)<<32 + uint64(v)
	return nil
}

// predBase is where newRig maps its predDev.
const predBase = 0x320

// predFlip is the virtual time the predDev's status flips at.
const predFlip = 1000

// predDev is a test device that predicts its reads (hw.SteadyReader and
// hw.BurstReader), so the loop kernels fast-forward over it:
//
//	+0 data    the next value of a sequence; a burst stops short of
//	           every 100th read
//	+1 status  0x80 (busy) until virtual time predFlip, then 0x08
//	+2 level   the last value written to +2
//
// calls counts its device calls, reads, Steady and Burst alike: the
// interpreter makes one per read.
type predDev struct {
	clock *hw.Clock
	pos   int
	level uint32
	calls int
}

func (d *predDev) Name() string { return "pred" }

func (d *predDev) next() uint32 {
	d.pos++
	return uint32(d.pos*0x3b + 7)
}

func (d *predDev) status() (uint32, uint64) {
	if d.clock.Now() < predFlip {
		return 0x80, predFlip
	}
	return 0x08, hw.Forever
}

func (d *predDev) Read(off hw.Port, w hw.AccessWidth) (uint32, error) {
	d.calls++
	switch off {
	case 0:
		return d.next(), nil
	case 1:
		v, _ := d.status()
		return v, nil
	}
	return d.level, nil
}

func (d *predDev) Write(off hw.Port, w hw.AccessWidth, v uint32) error {
	if off == 2 {
		d.level = v
	}
	return nil
}

func (d *predDev) Steady(off hw.Port, w hw.AccessWidth) (uint32, uint64, bool) {
	d.calls++
	switch off {
	case 0:
		return 0, 0, false
	case 1:
		v, until := d.status()
		return v, until, true
	}
	return d.level, hw.Forever, true
}

func (d *predDev) Burst(off hw.Port, w hw.AccessWidth, dst []uint32) int {
	d.calls++
	if off != 0 {
		return 0
	}
	n := min(len(dst), 99-d.pos%100)
	for i := range dst[:n] {
		dst[i] = d.next()
	}
	return n
}

// predSpec is a Devil specification over the predDev's ports, with the
// shapes the stub fast-forward distinguishes: the data port as a 16-bit
// and a 32-bit block variable; the status bits as an enum, a bool, a
// whole int and an int set that the status after predFlip fails; an
// enum and a signed int over the level; a variable of two fragments;
// and a register with a pre-action (Win, whose pre-action writes 0x21
// to the level).
const predSpec = `
device predtest (data : bit[16] port @ {0..0}, wide : bit[32] port @ {0..0},
                 base : bit[8] port @ {1..3}, stat : bit[8] port @ {0..0},
                 phase : bit[8] port @ {0..0}, pair : bit[8] port @ {0..0},
                 lv : bit[8] port @ {0..0}, win : bit[8] port @ {0..0})
{
    register data_reg = read data @ 0 : bit[16];
    variable Data = data_reg, volatile : int(16);
    register wide_reg = read wide @ 0 : bit[32];
    variable Wide = wide_reg, volatile : int(32);

    register status_bsy = read base @ 1, mask '.*******' : bit[8];
    variable Busy = status_bsy[7], volatile : { BUSY <= '1', IDLE <= '0' };
    register status_rdy = read base @ 1, mask '****.***' : bit[8];
    variable Ready = status_rdy[3], volatile : bool;
    register stat_reg = read stat @ 0 : bit[8];
    variable Status = stat_reg, volatile : int(8);
    register phase_reg = read phase @ 0, mask '....****' : bit[8];
    variable Phase = phase_reg[7..4], volatile : int {8, 9};

    register level_mode = read base @ 2, mask '******..' : bit[8];
    variable Mode = level_mode[1..0], volatile : { M0 <= '00', M1 <= '01', M2 <= '10', M3 <= '11' };
    register level = read lv @ 0 : bit[8];
    variable Level = level, volatile : signed int(8);
    register pair_lo = read base @ 3, mask '****....' : bit[8];
    register pair_hi = read pair @ 0, mask '....****' : bit[8];
    variable Both = pair_lo[3..0] # pair_hi[7..4], volatile : int(8);

    register sel = write base @ 2 : bit[8];
    private variable select = sel : int(8);
    register win_reg = read win @ 0, pre {select = 0x21} : bit[8];
    variable Win = win_reg, volatile : int(8);
}
`

// outcome captures everything observable about one call on one backend.
type outcome struct {
	val     cinterp.Value
	errText string
	console []string
	cov     *ccov.Set
	steps   int64
	// kernels is the number of loops the block backend compiled to loop
	// kernels.
	kernels int64
	// calls is the predDev's device calls on the interpreter and on the
	// block backend.
	calls [2]int
}

// runBoth executes fn on the interpreter and the block backend and
// requires identical observable results, returning the (shared)
// outcome.
func runBoth(t *testing.T, src, fn string, args ...cinterp.Value) outcome {
	t.Helper()
	return runBothOn(t, rigConfig{}, src, fn, args...)
}

// runBothOn is runBoth on machines built from cfg.
func runBothOn(t *testing.T, cfg rigConfig, src, fn string, args ...cinterp.Value) outcome {
	t.Helper()
	prog, perrs := cparser.Parse(src)
	if len(perrs) != 0 {
		t.Fatalf("parse: %v", perrs)
	}
	interpRig := newRigWith(cfg)
	compRig := newRigWith(cfg)
	env := ctypes.NewEnv(false)
	if interpRig.stubs != nil {
		if err := env.AddStubs(interpRig.stubs.Interface()); err != nil {
			t.Fatal(err)
		}
	}
	if cerrs := ccheck.Check(prog, env); len(cerrs) != 0 {
		t.Fatalf("check: %v", cerrs)
	}

	in, ierr := cinterp.New(prog, env, interpRig.kern, interpRig.bus, interpRig.stubs)
	p := ccompile.Compile(prog, compRig.kern, compRig.bus, compRig.stubs, nil)
	perr := p.Init()

	if (ierr == nil) != (perr == nil) || (ierr != nil && ierr.Error() != perr.Error()) {
		t.Fatalf("init divergence: interp=%v block=%v", ierr, perr)
	}
	if ierr != nil {
		sameMachine(t, interpRig, compRig)
		return outcome{errText: ierr.Error(), kernels: p.Stats().LoopKernels}
	}

	iv, ie := in.Call(fn, args...)
	cv, ce := p.Call(fn, args...)
	if (ie == nil) != (ce == nil) || (ie != nil && ie.Error() != ce.Error()) {
		t.Fatalf("error divergence: interp=%v block=%v", ie, ce)
	}
	if ie == nil && iv != cv {
		t.Fatalf("value divergence: interp=%+v block=%+v", iv, cv)
	}
	if ic, cc := interpRig.kern.Console(), compRig.kern.Console(); strings.Join(ic, "\n") != strings.Join(cc, "\n") {
		t.Fatalf("console divergence:\ninterp:   %q\nblock:    %q", ic, cc)
	}
	// Compare coverage through the CoveredLines iterator both backends
	// expose, then through the bitset equality the hot path uses.
	var iLines, cLines []int
	for line := range in.CoveredLines() {
		iLines = append(iLines, line)
	}
	for line := range p.CoveredLines() {
		cLines = append(cLines, line)
	}
	if !in.Coverage().Equal(p.Coverage()) || len(iLines) != len(cLines) {
		t.Fatalf("coverage divergence: interp=%v block=%v", iLines, cLines)
	}
	sameMachine(t, interpRig, compRig)
	var errText string
	if ie != nil {
		errText = ie.Error()
	}
	return outcome{val: cv, errText: errText, console: compRig.kern.Console(),
		cov: p.Coverage(), steps: compRig.kern.Steps(), kernels: p.Stats().LoopKernels,
		calls: [2]int{interpRig.pred.calls, compRig.pred.calls}}
}

// sameMachine requires two rigs to have ended in the same state: steps,
// transfer buffer, bus accounting, virtual time and device state.
func sameMachine(t *testing.T, a, b *rig) {
	t.Helper()
	if is, cs := a.kern.Steps(), b.kern.Steps(); is != cs {
		t.Fatalf("step divergence: interp=%d block=%d", is, cs)
	}
	if ib, cb := a.kern.Buf(), b.kern.Buf(); !bytes.Equal(ib, cb) {
		for i := range ib {
			if ib[i] != cb[i] {
				t.Fatalf("transfer buffer divergence at offset %d: interp=%#x block=%#x", i, ib[i], cb[i])
			}
		}
	}
	ia, ifa := a.bus.Stats()
	ca, cfa := b.bus.Stats()
	if ia != ca || ifa != cfa {
		t.Fatalf("bus divergence: interp=%d accesses, %d faults; block=%d accesses, %d faults", ia, ifa, ca, cfa)
	}
	if in, cn := a.clock.Now(), b.clock.Now(); in != cn {
		t.Fatalf("clock divergence: interp=%d block=%d", in, cn)
	}
	if a.dev.reads != b.dev.reads || a.dev.hash != b.dev.hash {
		t.Fatalf("device divergence: interp reads %v hash %#x; block reads %v hash %#x",
			a.dev.reads, a.dev.hash, b.dev.reads, b.dev.hash)
	}
	if a.pred.pos != b.pred.pos || a.pred.level != b.pred.level {
		t.Fatalf("predicting device divergence: interp data reads %d level %#x; block data reads %d level %#x",
			a.pred.pos, a.pred.level, b.pred.pos, b.pred.level)
	}
}

func callInt(t *testing.T, src, fn string, args ...cinterp.Value) int64 {
	t.Helper()
	o := runBoth(t, src, fn, args...)
	if o.errText != "" {
		t.Fatalf("call failed: %s", o.errText)
	}
	return o.val.I
}

func TestArithmeticAndTruncation(t *testing.T) {
	tests := []struct {
		expr string
		want int64
	}{
		{"1 + 2 * 3", 7},
		{"0x10 | 0x01", 0x11},
		{"1 << 4", 16},
		{"256 >> 4", 16},
		{"7 % 3", 1},
		{"~0 & 0xff", 0xff},
		{"!5", 0},
		{"-5 + 3", -2},
		{"3 == 3", 1},
		{"1 && 2", 1},
		{"0 ? 10 : 20", 20},
		{"(u8) 0x1ff", 0xff},
		{"(s8) 0xff", -1},
	}
	for _, tt := range tests {
		src := "int f(void) { return " + tt.expr + "; }"
		if got := callInt(t, src, "f"); got != tt.want {
			t.Errorf("%s = %d, want %d", tt.expr, got, tt.want)
		}
	}
}

// TestDeclaredTypeTruncationOnStore stores the value one past each end
// of every integer type's range through =, += and ++/-- into a local
// and a global, and requires the wrapped value on both backends.
func TestDeclaredTypeTruncationOnStore(t *testing.T) {
	src := `
int f(void) {
	u8 x;
	x = 300;
	x += 1;
	return x;
}`
	if got := callInt(t, src, "f"); got != 45 {
		t.Errorf("u8 store chain = %d, want 45", got)
	}
	for _, k := range []struct {
		typ      string
		min, max int64
	}{
		{"u8", 0, 0xff}, {"u16", 0, 0xffff}, {"u32", 0, 0xffff_ffff},
		{"s8", -0x80, 0x7f}, {"s16", -0x8000, 0x7fff},
		{"s32", -0x8000_0000, 0x7fff_ffff}, {"int", -0x8000_0000, 0x7fff_ffff},
	} {
		for _, st := range []struct {
			code string
			want int64
		}{
			{"x = MAX + 1;", k.min},
			{"x = MIN - 1;", k.max},
			{"x = MAX; x += 1;", k.min},
			{"x = MIN; x += -1;", k.max},
			{"x = MAX; x++;", k.min},
			{"x = MIN; x--;", k.max},
		} {
			for _, local := range []bool{true, false} {
				decl, global := "", "T x;"
				if local {
					decl, global = "T x;", ""
				}
				// The comparison reads the stored value itself: a return
				// of type T would truncate it once more.
				src := strings.NewReplacer("T ", k.typ+" ", "MAX", fmt.Sprint(k.max), "MIN", fmt.Sprint(k.min),
					"WANT", fmt.Sprint(st.want)).Replace(`
` + global + `
int f(void) {
	` + decl + `
	` + st.code + `
	return x == WANT;
}`)
				if got := callInt(t, src, "f"); got != 1 {
					t.Errorf("%s %s (local %v) does not store %d", k.typ, st.code, local, st.want)
				}
			}
		}
	}
}

func TestScopeShadowingAndLoops(t *testing.T) {
	src := `
int g;
int f(void) {
	int x = 1;
	int sum = 0;
	{
		int x = 10;
		sum += x;
	}
	sum += x;
	for (int i = 0; i < 4; i++) {
		int x = i;
		if (x == 2) { continue; }
		sum += x;
	}
	while (x < 5) { x++; }
	do { x--; } while (x > 3);
	g = sum;
	return sum * 100 + x;
}`
	// sum = 10 + 1 + (0+1+3) = 15; x ends at 3.
	if got := callInt(t, src, "f"); got != 1503 {
		t.Errorf("f = %d, want 1503", got)
	}
	// A while loop opens no scope of its own, unlike a for loop: a bare
	// declaration body declares into the enclosing scope.
	bare := `
int g;
int bump(void) { g = g + 1; return g; }
int f(void) {
	while (g < 3) int y = bump();
	return y;
}`
	if got := callInt(t, bare, "f"); got != 3 {
		t.Errorf("bare-declaration while body: f = %d, want 3", got)
	}
}

func TestSwitchSemantics(t *testing.T) {
	src := `
int f(int x) {
	int r = 0;
	switch (x) {
	case 1: r = 10; break;
	case 2:
	case 3: r = 23; break;
	default: r = 99;
	}
	return r;
}`
	for _, tt := range []struct{ in, want int64 }{{1, 10}, {2, 23}, {3, 23}, {7, 99}} {
		if got := callInt(t, src, "f", cinterp.IntValue(tt.in)); got != tt.want {
			t.Errorf("f(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestMacrosAndGlobals(t *testing.T) {
	src := `
#define BASE 0x100
#define NEXT BASE + 8
int origin = BASE;
int f(void) { return NEXT + origin; }`
	if got := callInt(t, src, "f"); got != 0x100+8+0x100 {
		t.Errorf("f = %d", got)
	}
}

func TestRecursionOverflowMatchesInterpreter(t *testing.T) {
	src := `int f(int n) { return f(n + 1); }`
	o := runBoth(t, src, "f", cinterp.IntValue(0))
	if !strings.Contains(o.errText, `call stack overflow in "f"`) {
		t.Errorf("overflow error = %q", o.errText)
	}
}

// TestReturnValuesThroughEveryStatementForm returns a value out of each
// statement form that carries control flow. A return statement stores
// its value in the block backend's state and the activation reads it
// only on return flow, so a nested call that overwrites the stored value,
// or a function that ends without a return after a callee's return, is
// where a stale value would leak.
func TestReturnValuesThroughEveryStatementForm(t *testing.T) {
	src := kernelPorts + `
int poll(void) {
	int t;
	for (t = 0; t < 1000; t++) {
		if (inb(COUNT) == 3)
			return t * 2 + inb(COUNT);
	}
	return -1;
}
int arm(int n) {
	int i;
	int acc = 0;
	for (i = 0; i < n; i++) {
		acc = acc + i;
		switch (i) {
		case 7:
			return acc * 3;
		default:
			acc = acc ^ 1;
		}
	}
	return -1;
}
int nested(int n) {
	int i;
	int acc = 5;
	for (i = 0; i < n; i++) {
		acc = acc + 2;
		{
			int k = acc - i;
			if (k > 20)
				return k + 100;
		}
	}
	return acc;
}
int dowhile(int n) {
	int c = 0;
	do {
		c = c + 3;
		if (c > n)
			return c * 10;
	} while (c < 100);
	return -c;
}
int sq(int x) { return x * x; }
int sum2(int a, int b) { return sq(a) + sq(b); }
void falls(void) { sq(9); }
int depth(int n) {
	if (n == 0)
		return 0;
	return depth(n - 1) + 1;
}
int spin(void) {
	int i = 0;
	while (inb(STATUS) & 0x80) {
		i = i + 1;
	}
	return i;
}
int tripped(void) { return spin() + 1; }
`
	tests := []struct {
		name, fn string
		args     []cinterp.Value
		budget   int64
		want     cinterp.Value
		err      string
	}{
		{name: "poll kernel then-branch", fn: "poll", want: cinterp.IntValue(74)},
		{name: "switch arm in a superblock", fn: "arm", args: []cinterp.Value{cinterp.IntValue(20)}, want: cinterp.IntValue(87)},
		{name: "nested block in a superblock", fn: "nested", args: []cinterp.Value{cinterp.IntValue(50)}, want: cinterp.IntValue(121)},
		{name: "do-while", fn: "dowhile", args: []cinterp.Value{cinterp.IntValue(10)}, want: cinterp.IntValue(120)},
		{name: "nested calls in the return expression", fn: "sum2",
			args: []cinterp.Value{cinterp.IntValue(3), cinterp.IntValue(4)}, want: cinterp.IntValue(25)},
		{name: "void function after a value-returning callee", fn: "falls", want: cinterp.VoidValue},
		{name: "recursion to the depth bound", fn: "depth", args: []cinterp.Value{cinterp.IntValue(63)}, want: cinterp.IntValue(63)},
		{name: "recursion past the depth bound", fn: "depth", args: []cinterp.Value{cinterp.IntValue(64)},
			err: `call stack overflow in "depth"`},
		{name: "watchdog inside a return expression", fn: "tripped", budget: 50, err: "watchdog"},
	}
	for _, tt := range tests {
		o := runBothOn(t, rigConfig{budget: tt.budget}, src, tt.fn, tt.args...)
		wantKernels(t, o, 1)
		switch {
		case tt.err != "" && !strings.Contains(o.errText, tt.err):
			t.Errorf("%s: error %q, want %q", tt.name, o.errText, tt.err)
		case tt.err == "" && (o.errText != "" || o.val != tt.want):
			t.Errorf("%s: %s() = %+v, %q, want %+v", tt.name, tt.fn, o.val, o.errText, tt.want)
		}
	}
}

func TestDivisionByZeroMatchesInterpreter(t *testing.T) {
	src := `int f(int n) { return 10 / n; }`
	o := runBoth(t, src, "f", cinterp.IntValue(0))
	if !strings.Contains(o.errText, "division by zero") {
		t.Errorf("error = %q", o.errText)
	}
}

func TestPrintkAndPanic(t *testing.T) {
	src := `
int f(void) {
	printk("val %d mask %x tail %%", 42, 255);
	panic("boom");
	return 0;
}`
	o := runBoth(t, src, "f")
	if !strings.Contains(o.errText, "kernel panic") {
		t.Errorf("panic error = %q", o.errText)
	}
	if len(o.console) == 0 || o.console[0] != "val 42 mask ff tail %" {
		t.Errorf("console = %q", o.console)
	}
}

func TestGlobalInitSelfReferenceFaults(t *testing.T) {
	// The checker registers a global before checking its initialiser, so
	// "int x = x + 1;" checks — and faults identically at insmod time on
	// both backends (runBoth diffs the init errors).
	o := runBoth(t, `int x = x + 1; int f(void) { return x; }`, "f")
	if !strings.Contains(o.errText, `use of undefined identifier "x"`) {
		t.Errorf("init error = %q", o.errText)
	}
}

func TestCoverageReflectsTakenBranches(t *testing.T) {
	src := `int f(int x) {
	if (x) {
		return 1;
	}
	return 2;
}`
	o := runBoth(t, src, "f", cinterp.IntValue(1))
	if !o.cov.Covered(3) {
		t.Error("taken branch (line 3) not covered")
	}
	if o.cov.Covered(5) {
		t.Error("untaken branch (line 5) covered")
	}
}

func TestRecursiveCallArgumentsAreIsolated(t *testing.T) {
	// Exercises the pooled argument buffers under recursion: every
	// activation must see its own arguments.
	src := `
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}`
	if got := callInt(t, src, "fib", cinterp.IntValue(12)); got != 144 {
		t.Errorf("fib(12) = %d, want 144", got)
	}
}

// TestMacroCyclesAgree boots macro expansion cycles (creatable only by
// exotic identifier mutants) on both backends: the block backend
// compiles them and recurses until the depth guard raises the
// interpreter's crash, with the same coverage and steps.
func TestMacroCyclesAgree(t *testing.T) {
	for name, src := range map[string]string{
		"mutual": `
#define A B
#define B A
int f(void) { return A; }`,
		"under a local": `
#define A (B + 1)
#define B (A * 2)
int f(void) {
	int v = 3;
	printk("v %d", v);
	v = v + A;
	return v;
}`,
		"self after a global store": `
int g;
#define A (A + 1)
int f(void) {
	g = 5;
	return g + A;
}`,
		"in a global initialiser": `
#define A (B - 1)
#define B (A + 2)
int g = B;
int f(void) { return g; }`,
	} {
		t.Run(name, func(t *testing.T) {
			o := runBoth(t, src, "f")
			if !strings.Contains(o.errText, "macro expansion too deep") {
				t.Fatalf("error = %q, want the macro depth guard's crash", o.errText)
			}
		})
	}
}

// TestStubCallArityMatchesInterpreter runs get_X/set_X calls of every
// arity over the busmouse stubs on the interpreter and the block
// backend. The program is parsed but not type-checked, since the checker
// rejects wrong-arity stub calls; a mutant that reaches execution without
// it must still see the interpreter's semantics: arguments evaluate in
// order and stop at the first error, a get ignores them, and a set of any
// arity other than one stores the zero value.
func TestStubCallArityMatchesInterpreter(t *testing.T) {
	src := `
int trace(int v) { printk("arg %d", v); return v; }
int f(int n) {
	set_signature(trace(0x11), trace(0x22));
	set_signature();
	set_signature(trace(0x5a));
	int a = get_signature(trace(3), trace(4));
	return a + get_dx() + get_dx(trace(7)) + get_signature(10 / n);
}
int g(void) { return get_interrupt(trace(9)); }`
	prog, perrs := cparser.Parse(src)
	if len(perrs) != 0 {
		t.Fatalf("parse: %v", perrs)
	}
	s, err := specs.Load("busmouse")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := devil.Compile(s.Filename, s.Source)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		val     cinterp.Value
		errText string
		console string
		trace   []hw.Access
		cov     []int
	}
	run := func(backend, fn string, n int64) result {
		bus := hw.NewBus()
		bus.SetFloating(true)
		bus.SetTracing(true)
		kern := kernel.New(&hw.Clock{})
		stubs, err := spec.Generate(devil.Config{
			Bus: bus, Bases: map[string]hw.Port{"base": 0x23c}, Mode: devil.Debug,
		})
		if err != nil {
			t.Fatal(err)
		}
		env := ctypes.NewEnv(false)
		if err := env.AddStubs(stubs.Interface()); err != nil {
			t.Fatal(err)
		}
		var call func(string, ...cinterp.Value) (cinterp.Value, error)
		var cov *ccov.Set
		switch backend {
		case "interp":
			in, err := cinterp.New(prog, env, kern, bus, stubs)
			if err != nil {
				t.Fatal(err)
			}
			call, cov = in.Call, in.Coverage()
		default:
			p := ccompile.Compile(prog, kern, bus, stubs, nil)
			if err := p.Init(); err != nil {
				t.Fatal(err)
			}
			call, cov = p.Call, p.Coverage()
		}
		var args []cinterp.Value
		if fn == "f" {
			args = append(args, cinterp.IntValue(n))
		}
		v, err := call(fn, args...)
		r := result{val: v, console: strings.Join(kern.Console(), "\n"),
			trace: bus.Trace(), cov: cov.Slice()}
		if err != nil {
			r.errText = err.Error()
		}
		return r
	}
	for _, tc := range []struct {
		fn      string
		n       int64
		wantErr string
	}{
		{"f", 1, ""},
		{"f", 0, "division by zero"},
		{"g", 0, "device variable interrupt is write-only"},
	} {
		want := run("interp", tc.fn, tc.n)
		if !strings.Contains(want.errText, tc.wantErr) || (tc.wantErr == "") != (want.errText == "") {
			t.Fatalf("%s(%d): interpreter error = %q, want %q", tc.fn, tc.n, want.errText, tc.wantErr)
		}
		if got := run("block", tc.fn, tc.n); !reflect.DeepEqual(got, want) {
			t.Errorf("%s(%d) on block:\n got  %+v\n want %+v", tc.fn, tc.n, got, want)
		}
	}
}

func TestMachReuseAcrossBoots(t *testing.T) {
	// One Mach pools stack, coverage and argument buffers across
	// compiles; the second boot must start from clean state.
	m := ccompile.NewMach()
	src := `int f(int n) { int acc = 0; while (n > 0) { acc += n; n--; } return acc; }`
	prog, perrs := cparser.Parse(src)
	if len(perrs) != 0 {
		t.Fatalf("parse: %v", perrs)
	}
	env := ctypes.NewEnv(false)
	if cerrs := ccheck.Check(prog, env); len(cerrs) != 0 {
		t.Fatalf("check: %v", cerrs)
	}
	var firstCov []int
	for i := 0; i < 3; i++ {
		r := newRig()
		p := ccompile.Compile(prog, r.kern, r.bus, nil, m)
		if err := p.Init(); err != nil {
			t.Fatal(err)
		}
		v, err := p.Call("f", cinterp.IntValue(10))
		if err != nil || v.I != 55 {
			t.Fatalf("boot %d: f(10) = %v, %v", i, v, err)
		}
		if i == 0 {
			firstCov = p.Coverage().Slice()
		} else if got := p.Coverage().Slice(); len(got) != len(firstCov) {
			t.Fatalf("boot %d coverage = %v, want %v", i, got, firstCov)
		}
	}
}

// TestMultiLineOperands puts operands on lines of their own: a binary's
// operands and operator, a port macro, a mask, a call's arguments and a
// get_X() call, in a plain statement, an if condition, a superblock body
// after its first completed iteration, and a poll kernel's condition. The interpreter
// covers every operand's line, so a fused operand that drops a coverage
// add it cannot prove redundant diverges here.
func TestMultiLineOperands(t *testing.T) {
	src := `
#define STATUS 0x301
#define OUT 0x304
#define MASK 0x08
#define WIDE 3
int g;
int add3(int a, int b, int c) { return a + b + c; }
int plain(int a) {
	int x = 1;
	int p = OUT;
	x = a
		+
		x;
	x = WIDE
		* x;
	x = x | (inb(
		STATUS)
		&
		MASK);
	outb(x,
		p);
	g = add3(a,
		x,
		WIDE);
	return x + g;
}
int cond(int a) {
	if (a
		==
		MASK)
		return 1;
	if (inb(
		STATUS)
		& MASK)
		return 2;
	if (a
		> WIDE
		&&
		add3(a, 0,
			a) > 10)
		return 3;
	return 0;
}
int lean(int n) {
	int i;
	int s = 0;
	for (i = 0; i < n; i++) {
		s = s
			+ i;
		if (i
			== 5)
			s = s - (inb(
				STATUS)
				& MASK);
		if (i > 6)
			s = s ^ add3(i,
				WIDE,
				s);
	}
	return s;
}
int poll(int n) {
	int t;
	for (t = 0; t < 1000; t++) {
		if (inb(
			STATUS)
			&
			MASK)
			return t;
	}
	return -n;
}
`
	for _, c := range []struct {
		fn  string
		arg int64
	}{{"plain", 5}, {"cond", 8}, {"cond", 4}, {"cond", 9}, {"lean", 12}, {"poll", 1000}} {
		t.Run(fmt.Sprintf("%s(%d)", c.fn, c.arg), func(t *testing.T) {
			o := runBoth(t, src, c.fn, intArg(c.arg))
			if o.errText != "" {
				t.Fatal(o.errText)
			}
			wantKernels(t, o, 1) // poll's loop; lean's body is no kernel shape
		})
	}

	stubSrc := `
#define RDY 0x08
int get(int s) {
	s = s
		+ get_Status();
	if (
		get_Status()
		& RDY)
		s = s + 1;
	return s;
}
int stubpoll(int delay) {
	int t;
	udelay(delay);
	for (t = 0; t < 5000; t++) {
		if (
			get_Status()
			&
			RDY)
			return t;
	}
	return -1;
}
`
	for _, mode := range stubModes {
		for _, fn := range []string{"get", "stubpoll"} {
			t.Run(fmt.Sprintf("%s/%v", fn, mode), func(t *testing.T) {
				o := runBothOn(t, rigConfig{stubs: mode}, stubSrc, fn, intArg(100))
				if o.errText != "" {
					t.Fatal(o.errText)
				}
				wantKernels(t, o, 1)
			})
		}
	}
}
