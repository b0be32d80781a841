package kernel

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/devil/codegen"
	"repro/internal/hw"
)

// PanicError is a kernel panic: the boot halts and the message is printed
// on the console (the paper's "Halt" outcome).
type PanicError struct {
	Msg string
}

// Error implements the error interface.
func (e *PanicError) Error() string { return "kernel panic: " + e.Msg }

// WatchdogError reports that the boot exceeded its step budget — the
// simulator's detector for the paper's "Infinite loop" outcome.
type WatchdogError struct {
	Budget int64
}

// Error implements the error interface.
func (e *WatchdogError) Error() string {
	return fmt.Sprintf("watchdog: boot did not complete within %d steps", e.Budget)
}

// DeadlineError reports that the boot exceeded its wall-clock deadline.
// The step-count watchdog is the deterministic detector for driver
// loops; the deadline is the harness safety net behind it, catching
// boots whose real time diverges from their step count (a sim spinning
// inside one "step", a scheduler stall) so a fault-heavy campaign can
// never wedge on one mutant.
type DeadlineError struct {
	Limit time.Duration
}

// Error implements the error interface.
func (e *DeadlineError) Error() string {
	return fmt.Sprintf("deadline: boot did not complete within %v of wall time", e.Limit)
}

// CrashError reports a machine-level failure that prints nothing: an
// unhandled bus fault, a divide by zero, a wild jump. The paper's "Crash".
type CrashError struct {
	Cause error
}

// Error implements the error interface.
func (e *CrashError) Error() string { return fmt.Sprintf("machine crash: %v", e.Cause) }

// Unwrap exposes the cause.
func (e *CrashError) Unwrap() error { return e.Cause }

// DefaultStepBudget bounds one boot. A clean boot of the simulated IDE
// driver takes well under 1% of this, so expiry reliably indicates a
// non-terminating wait loop rather than a slow path.
const DefaultStepBudget = 2_000_000

// deadlineCheckMask picks how often the watchdog consults the wall
// clock: every 4096 steps, so the deadline costs one mask test on the
// step hot path instead of a time syscall per step.
const deadlineCheckMask = 1<<12 - 1

// Kernel is one simulated machine boot context.
type Kernel struct {
	clock   *hw.Clock
	console []string
	budget  int64
	steps   int64
	// forwarded counts the steps Forward charged: loop iterations a
	// compiled loop kernel applied in one batch.
	forwarded int64
	// deadline, when set, is the wall-clock instant the boot must finish
	// by; limit is the duration it was derived from, for the error text.
	deadline time.Time
	limit    time.Duration
	// buf is the kernel transfer buffer drivers DMA/PIO sector data into,
	// exposed to driver code through the kbuf_* builtins.
	buf []byte
}

// New creates a kernel with the default step budget.
func New(clock *hw.Clock) *Kernel {
	return &Kernel{clock: clock, budget: DefaultStepBudget, buf: make([]byte, 64*1024)}
}

// SetBudget overrides the watchdog step budget (tests use small budgets).
func (k *Kernel) SetBudget(n int64) { k.budget = n }

// SetDeadline arms the wall-clock watchdog: the boot fails with a
// DeadlineError once wall time passes limit from now. A zero limit
// disarms it. Reset disarms it too, so reused kernels re-arm per boot.
func (k *Kernel) SetDeadline(limit time.Duration) {
	if limit <= 0 {
		k.deadline = time.Time{}
		k.limit = 0
		return
	}
	k.deadline = time.Now().Add(limit)
	k.limit = limit
}

// checkDeadline polls the wall clock; it only runs every
// deadlineCheckMask+1 steps.
func (k *Kernel) checkDeadline() error {
	if !k.deadline.IsZero() && time.Now().After(k.deadline) {
		return &DeadlineError{Limit: k.limit}
	}
	return nil
}

// Reset returns the kernel to its power-on state — console cleared,
// watchdog rewound to the default budget, transfer buffer zeroed — so a
// campaign worker can reuse the kernel across boots instead of allocating
// a new one per mutant. The clock is shared with the attached device
// models and deliberately keeps counting: devices only measure time
// elapsed since their own Reset or last catch-up, so a monotonic clock
// does not change boot behaviour.
func (k *Kernel) Reset() {
	k.console = k.console[:0]
	k.steps = 0
	k.forwarded = 0
	k.budget = DefaultStepBudget
	k.deadline = time.Time{}
	k.limit = 0
	for i := range k.buf {
		k.buf[i] = 0
	}
}

// Steps returns the number of steps consumed so far.
func (k *Kernel) Steps() int64 { return k.steps }

// Room returns how many more steps the watchdog allows before it trips.
func (k *Kernel) Room() int64 { return k.budget - k.steps }

// Now returns the virtual time of the clock the kernel ticks.
func (k *Kernel) Now() uint64 { return k.clock.Now() }

// Forward charges the n steps of loop iterations a compiled loop kernel
// applied in one batch, as StepN does, and counts them in Forwarded. The
// caller keeps n within Room, so only the wall-clock deadline can fail.
func (k *Kernel) Forward(n int64) error {
	k.forwarded += n
	return k.StepN(n)
}

// Forwarded returns the steps charged through Forward since Reset.
func (k *Kernel) Forwarded() int64 { return k.forwarded }

// Step charges one execution step against the watchdog and advances virtual
// time. The interpreter calls it once per statement/expression step.
func (k *Kernel) Step() error {
	k.steps++
	k.clock.Tick(1)
	if k.steps > k.budget {
		return &WatchdogError{Budget: k.budget}
	}
	if k.steps&deadlineCheckMask == 0 {
		return k.checkDeadline()
	}
	return nil
}

// StepN charges n execution steps at once — the block backend's loop
// superblocks batch the per-iteration charges that sequential Step calls
// would make back to back with nothing in between. The count is clamped
// to the budget so a watchdog-tripped boot lands on exactly budget+1
// steps, byte-identical to n sequential Step calls; virtual time advances
// by n in one Tick, and the wall clock is polled once when the batch
// crosses a deadline-check boundary.
func (k *Kernel) StepN(n int64) error {
	if n <= 0 {
		return nil
	}
	if remaining := k.budget + 1 - k.steps; n > remaining {
		n = remaining
		if n <= 0 {
			return &WatchdogError{Budget: k.budget}
		}
	}
	before := k.steps
	k.steps += n
	k.clock.Tick(uint64(n))
	if k.steps > k.budget {
		return &WatchdogError{Budget: k.budget}
	}
	if before>>12 != k.steps>>12 {
		return k.checkDeadline()
	}
	return nil
}

// Delay advances virtual time by n ticks (the udelay builtin), charging the
// watchdog proportionally so a mutated delay constant cannot stall forever.
func (k *Kernel) Delay(n int64) error {
	if n < 0 {
		n = 0
	}
	k.steps += n
	k.clock.Tick(uint64(n))
	if k.steps > k.budget {
		return &WatchdogError{Budget: k.budget}
	}
	// Delays are rare and large; always worth a wall-clock poll.
	return k.checkDeadline()
}

// Printk appends a console line.
func (k *Kernel) Printk(msg string) {
	k.console = append(k.console, msg)
}

// Console returns a copy of the console log.
func (k *Kernel) Console() []string {
	out := make([]string, len(k.console))
	copy(out, k.console)
	return out
}

// ConsoleView returns the console log without copying. The slice
// aliases the kernel's pooled buffer: it is valid until the kernel is
// Reset or logs again, so callers that keep it across boots must copy.
// The campaign hot path reads one boot's console before the next boot
// starts, which is why BootResult carries the view rather than paying a
// per-boot copy.
func (k *Kernel) ConsoleView() []string { return k.console }

// Panic halts the kernel with a message.
func (k *Kernel) Panic(msg string) error {
	k.console = append(k.console, "Kernel panic: "+msg)
	return &PanicError{Msg: msg}
}

// Buf returns the kernel transfer buffer.
func (k *Kernel) Buf() []byte { return k.buf }

// BufRead8 reads one byte of the transfer buffer, with bounds checking that
// crashes (wild pointer) rather than erroring politely.
func (k *Kernel) BufRead8(off int64) (uint8, error) {
	if off < 0 || off >= int64(len(k.buf)) {
		return 0, &CrashError{Cause: fmt.Errorf("wild buffer read at %d", off)}
	}
	return k.buf[off], nil
}

// BufWrite8 writes one byte of the transfer buffer.
func (k *Kernel) BufWrite8(off int64, v uint8) error {
	if off < 0 || off >= int64(len(k.buf)) {
		return &CrashError{Cause: fmt.Errorf("wild buffer write at %d", off)}
	}
	k.buf[off] = v
	return nil
}

// BufRead16 reads a little-endian 16-bit word of the transfer buffer.
func (k *Kernel) BufRead16(off int64) (uint16, error) {
	lo, err := k.BufRead8(off)
	if err != nil {
		return 0, err
	}
	hi, err := k.BufRead8(off + 1)
	if err != nil {
		return 0, err
	}
	return uint16(lo) | uint16(hi)<<8, nil
}

// BufWrite16 writes a little-endian 16-bit word of the transfer buffer.
func (k *Kernel) BufWrite16(off int64, v uint16) error {
	if err := k.BufWrite8(off, uint8(v)); err != nil {
		return err
	}
	return k.BufWrite8(off+1, uint8(v>>8))
}

// Classify maps the error (or nil) a boot terminated with to its outcome
// class. A nil error yields OutcomeBoot; the caller upgrades it to
// OutcomeDamagedBoot after the filesystem audit, or to OutcomeDeadCode when
// the mutation site was never executed.
func Classify(err error) Outcome {
	if err == nil {
		return OutcomeBoot
	}
	var assertErr *codegen.AssertError
	if errors.As(err, &assertErr) {
		return OutcomeRuntimeCheck
	}
	var panicErr *PanicError
	if errors.As(err, &panicErr) {
		return OutcomeHalt
	}
	var wdErr *WatchdogError
	if errors.As(err, &wdErr) {
		return OutcomeInfiniteLoop
	}
	// A wall-clock deadline expiry is the non-terminating-boot detector's
	// safety net: same outcome class as the step watchdog.
	var dlErr *DeadlineError
	if errors.As(err, &dlErr) {
		return OutcomeInfiniteLoop
	}
	// Bus faults, wild pointers and any other machine-level error print
	// nothing: the machine just stops.
	return OutcomeCrash
}
