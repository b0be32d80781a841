package hw

// Clock is the virtual time source shared by device models and the kernel
// simulator: a plain counter. Each interpreter step ticks it once, so a
// driver busy-wait loop makes forward progress deterministically. Device
// state machines that take "time" on real hardware (an IDE command
// completing, a FIFO draining) do not listen to it; they catch up to Now
// whenever the driver or the harness observes them (see ARCHITECTURE.md,
// "Device time").
//
// The zero value is a clock at time zero, ready to use.
type Clock struct {
	now uint64
}

// Now returns the current virtual time in ticks.
func (c *Clock) Now() uint64 { return c.now }

// Tick advances virtual time by n ticks.
func (c *Clock) Tick(n uint64) { c.now += n }
