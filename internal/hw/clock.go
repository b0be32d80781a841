package hw

// Clock is the virtual time source shared by device models and the kernel
// simulator. Device state machines that take "time" on real hardware (an IDE
// command completing, a FIFO draining) advance when the clock ticks, so a
// driver busy-wait loop makes forward progress deterministically: each
// interpreter step ticks the clock once.
//
// The zero value is a clock at time zero, ready to use.
type Clock struct {
	now       uint64
	listeners []func(now uint64)
}

// Now returns the current virtual time in ticks.
func (c *Clock) Now() uint64 { return c.now }

// Tick advances virtual time by n ticks, notifying listeners once per tick
// batch (listeners receive the new time).
func (c *Clock) Tick(n uint64) {
	if n == 0 {
		return
	}
	c.now += n
	for _, f := range c.listeners {
		f(c.now)
	}
}

// OnTick registers a listener invoked after every Tick. Device models use
// this to advance internal state machines.
func (c *Clock) OnTick(f func(now uint64)) {
	c.listeners = append(c.listeners, f)
}
