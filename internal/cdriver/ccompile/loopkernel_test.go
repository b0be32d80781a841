package ccompile_test

import (
	"fmt"
	"strings"
	"testing"
)

// Loop-kernel edge cases. runBoth diffs value, error, console, coverage
// and steps, and (through sameMachine) the transfer buffer, the bus
// accounting, virtual time and the seqDev's read counts and write hash,
// so a kernel that writes the wrong transfer-buffer offset, strobes a
// port once too often or reads it at another virtual time fails here.
// Each case also pins how many loops compiled to kernels, so it cannot
// pass by falling back to the lean iterations.

const kernelPorts = `
#define DATA 0x300
#define STATUS 0x301
#define COUNT 0x302
#define OUT 0x304
`

func wantKernels(t *testing.T, o outcome, n int64) {
	t.Helper()
	if o.kernels != n {
		t.Fatalf("%d loops compiled to kernels, want %d", o.kernels, n)
	}
}

func TestKernelTransferShapes(t *testing.T) {
	src := kernelPorts + `
int in_to_buf(int n) {
	int i;
	for (i = 0; i < n; i++) {
		kbuf_write16(i * 2, inw(DATA));
	}
	return i;
}
int via_local(int n) {
	int i;
	u16 w;
	for (i = 0; i < n; i++) {
		w = inl(DATA);
		kbuf_write16(i + i + 1024, w);
	}
	return w;
}
int bytes_out(int n) {
	int i;
	u8 b;
	for (i = 0; i < n; i++) {
		b = kbuf_read8(i + 3);
		outb(b, OUT);
	}
	return b;
}
int words_out(int n, int s) {
	int i;
	for (i = 0; i < n; i++) {
		outw(kbuf_read16((s << 9) + i * 2 - 4), OUT);
	}
	return i;
}
int longs(int n) {
	int i;
	int v;
	for (i = 0; i < n; i++) {
		v = inl(0x300);
		outl(v, 0x304);
	}
	return v;
}
int bytes_in(int n) {
	int i;
	for (i = 0; i < n; i++)
		kbuf_write8(2000 + 3 * i, inb(DATA));
	return i;
}
int all(void) {
	return in_to_buf(300) + via_local(200) + bytes_out(250) + words_out(64, 1)
		+ longs(40) + bytes_in(90);
}
`
	o := runBoth(t, src, "all")
	wantKernels(t, o, 6)
	if o.errText != "" {
		t.Fatalf("all(): %s", o.errText)
	}
	for _, n := range []int64{0, 1, 2, 3} {
		runBoth(t, src, "in_to_buf", intArg(n))
		runBoth(t, src, "via_local", intArg(n))
	}
}

// TestKernelWatchdogSweep trips the watchdog at every charge position of
// many kernel iterations of each shape: the batched head and tail
// charges must clamp to exactly budget+1 steps, with the statements a
// failing charge dominates left unexecuted.
func TestKernelWatchdogSweep(t *testing.T) {
	src := kernelPorts + `
int xfer(void) {
	int i;
	int w;
	for (i = 0; i < 1000; i++) {
		w = inw(DATA);
		kbuf_write16(i * 2, w);
	}
	return i;
}
int poll(void) {
	int t;
	for (t = 0; t < 1000; t++) {
		if (inb(COUNT) == 3)
			return t;
	}
	return -1;
}
int spin(void) {
	while (inb(STATUS) & 0x80) {
	}
	return 1;
}
`
	for _, fn := range []string{"xfer", "poll", "spin"} {
		for budget := int64(1); budget <= 90; budget++ {
			o := runBothOn(t, rigConfig{budget: budget}, src, fn)
			wantKernels(t, o, 3)
			if strings.Contains(o.errText, "watchdog") && o.steps != budget+1 {
				t.Fatalf("%s at budget %d: %d steps, want %d", fn, budget, o.steps, budget+1)
			}
		}
	}
}

func TestKernelWildWriteMidLoop(t *testing.T) {
	src := kernelPorts + `
int f(void) {
	int i;
	for (i = 0; i < 8; i++) {
		kbuf_write16(65529 + i * 2, inw(DATA));
	}
	return i;
}
`
	o := runBoth(t, src, "f")
	wantKernels(t, o, 1)
	if !strings.Contains(o.errText, "wild buffer write at 65536") {
		t.Fatalf("error = %q, want the wild write of the word at 65535", o.errText)
	}
}

func TestKernelBusFaults(t *testing.T) {
	src := kernelPorts + `
int through(int n) {
	int i;
	int w;
	for (i = 0; i < n; i++) {
		w = inw(DATA);
		outw(w, OUT);
	}
	return w;
}
int unmapped(void) {
	int i;
	for (i = 0; i < 10; i++) {
		kbuf_write16(i * 2, inw(0x310));
	}
	return i;
}
`
	// A strict bus whose device starts faulting on its 5th data read:
	// the fault lands in the kernel's fourth iteration.
	o := runBothOn(t, rigConfig{strict: true, failAt: 5}, src, "through", intArg(10))
	wantKernels(t, o, 2)
	if !strings.Contains(o.errText, "data underrun") {
		t.Fatalf("error = %q, want the device fault", o.errText)
	}
	o = runBothOn(t, rigConfig{strict: true}, src, "unmapped")
	if !strings.Contains(o.errText, "bus fault") {
		t.Fatalf("error = %q, want a strict-bus fault", o.errText)
	}
	runBoth(t, src, "unmapped") // floating: all-ones reads, no fault
}

// TestKernelByteCounterNeverExits runs `u8 i; for (i = 0; i < 256; i++)`:
// the post truncates i back to 0, so the loop spins until the watchdog
// trips at budget+1.
func TestKernelByteCounterNeverExits(t *testing.T) {
	src := kernelPorts + `
int f(void) {
	u8 i;
	for (i = 0; i < 256; i++) {
		kbuf_write8(i, inb(DATA));
	}
	return i;
}
`
	const budget = 3000
	o := runBothOn(t, rigConfig{budget: budget}, src, "f")
	wantKernels(t, o, 1)
	if !strings.Contains(o.errText, "watchdog") || o.steps != budget+1 {
		t.Fatalf("error %q after %d steps, want the watchdog at %d", o.errText, o.steps, budget+1)
	}
}

func TestKernelCountingDown(t *testing.T) {
	src := kernelPorts + `
int f(void) {
	int i;
	u16 w;
	for (i = 255; i >= 0; i--) {
		w = inw(DATA);
		kbuf_write16(i * 2, w);
	}
	return i;
}
int g(void) {
	int t;
	for (t = 40; t > 0; t--) {
		if (inb(STATUS) & 0x01)
			kbuf_write8(t, inb(DATA));
	}
	return t;
}
`
	o := runBoth(t, src, "f")
	wantKernels(t, o, 2)
	if o.val.I != -1 {
		t.Fatalf("f() = %d, want -1", o.val.I)
	}
	runBoth(t, src, "g")
}

// TestKernelBoundWrittenInBody writes the loop bound's local inside the
// body, so the bound must be re-evaluated each iteration, not hoisted.
func TestKernelBoundWrittenInBody(t *testing.T) {
	src := kernelPorts + `
int xfer(void) {
	int i;
	int n = 100;
	for (i = 0; i < n; i++) {
		n = inb(COUNT);
	}
	return i * 1000 + n;
}
int xfer_div(void) {
	int i;
	int n = 100;
	for (i = 0; i < (n - 4 + 1) / 2; i++) {
		n = inb(COUNT);
		kbuf_write8(i, n);
	}
	return i * 1000 + n;
}
int poll(void) {
	int t;
	int lim = 60;
	for (t = 0; t < lim; t++) {
		if (inb(STATUS) & 0x01)
			lim = lim - 7;
	}
	return t * 1000 + lim;
}
`
	for fn, want := range map[string]int64{"xfer": 20020, "xfer_div": 12028, "poll": 18018} {
		o := runBoth(t, src, fn)
		wantKernels(t, o, 3)
		if o.val.I != want {
			t.Errorf("%s() = %d, want %d", fn, o.val.I, want)
		}
	}
}

func TestKernelPollBranches(t *testing.T) {
	src := kernelPorts + `
int rewind(void) {
	int t;
	int hits = 0;
	for (t = 0; t < 100; t++) {
		if (inb(STATUS) & 0x01) {
			hits = hits + 1;
			t = t + 5;
			continue;
		}
	}
	return t * 1000 + hits;
}
int branches(void) {
	int t;
	int busy = 0;
	for (t = 0; t < 80; t++) {
		if (inb(STATUS) & 0x80) {
			busy = busy + 1;
		} else {
			kbuf_write8(t, inb(DATA));
		}
	}
	return busy;
}
int ready(void) {
	int t;
	for (t = 0; t < 1000; t++) {
		if (inb(STATUS) & 0x08)
			return t;
	}
	return -1;
}
int shifted(int mask) {
	int t;
	for (t = 0; t < 1000; t++) {
		if ((inb(STATUS) >> 3) & mask)
			break;
	}
	return t;
}
int spin(void) {
	while (inb(STATUS) & 0x80) {
	}
	return inb(STATUS);
}
`
	for _, fn := range []string{"rewind", "branches", "ready", "spin"} {
		o := runBoth(t, src, fn)
		wantKernels(t, o, 5)
		if o.errText != "" {
			t.Fatalf("%s(): %s", fn, o.errText)
		}
	}
	if o := runBoth(t, src, "shifted", intArg(1)); o.val.I == 1000 {
		t.Fatalf("shifted(1) never saw the ready bit")
	}
}

// TestKernelLateMacroDuringInit calls a transfer loop from a global
// initialiser before its port macro is declared: the macro guard takes
// the late path on both backends alike.
func TestKernelLateMacroDuringInit(t *testing.T) {
	src := `
int drain(void) {
	int i;
	for (i = 0; i < 4; i++) {
		kbuf_write16(i * 2, inw(LATE_PORT));
	}
	return i;
}
int early = drain();
#define LATE_PORT 0x300
int f(void) { return early + drain(); }
`
	o := runBoth(t, src, "f")
	wantKernels(t, o, 1)
	if !strings.Contains(o.errText, `use of undefined identifier "LATE_PORT"`) {
		t.Fatalf("init error = %q", o.errText)
	}
}

// TestKernelShapesNotRecognised pins loops that must stay on the lean
// iterations:
// an offset that is not affine or reads a third local, a third
// statement, a port that is not constant, a value that is not a port
// read or a local, and a post that is not i++/i--.
func TestKernelShapesNotRecognised(t *testing.T) {
	for i, body := range []string{
		"kbuf_write16(i * i, inw(DATA));",
		"kbuf_write16(i + j + k, inw(DATA));",
		"kbuf_write16(i, inw(DATA)); kbuf_write16(i, inw(DATA)); kbuf_write16(i, inw(DATA));",
		"kbuf_write16(i, inw(j));",
		"kbuf_write16(i, inb(DATA) + 1);",
	} {
		src := kernelPorts + fmt.Sprintf(`
int f(void) {
	int i;
	int j = 3;
	int k = 5;
	for (i = 0; i < 20; i++) {
		%s
	}
	return i;
}
`, body)
		if o := runBoth(t, src, "f"); o.kernels != 0 {
			t.Errorf("case %d compiled %d kernels, want 0", i, o.kernels)
		}
	}
	src := kernelPorts + `
int f(void) {
	int i;
	for (i = 0; i < 20; i = i + 1) {
		kbuf_write8(i, inb(DATA));
	}
	return i;
}
`
	if o := runBoth(t, src, "f"); o.kernels != 0 {
		t.Errorf("compiled %d kernels, want 0", o.kernels)
	}
}
