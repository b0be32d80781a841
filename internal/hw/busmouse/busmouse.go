// Package busmouse models the Logitech bus mouse adapter that Figure 3 of
// the paper specifies: four ports carrying a signature register, a
// write-only configuration register, an interrupt/index control register,
// and a data port multiplexed by the index bits into the four nibbles of
// the motion counters and the button state.
package busmouse

import (
	"fmt"

	"repro/internal/hw"
)

// Register offsets within the adapter's four-port window.
const (
	offData      hw.Port = 0 // read: nibble selected by the index bits
	offSignature hw.Port = 1 // read/write: signature (diagnostic) register
	offControl   hw.Port = 2 // write: interrupt enable + index bits
	offConfig    hw.Port = 3 // write: configuration register
)

// Index values select which nibble the data port exposes.
const (
	idxXLow  = 0
	idxXHigh = 1
	idxYLow  = 2
	idxYHigh = 3
)

// Mouse is the adapter model. Tests and examples feed it motion with Move
// and Buttons; the driver reads it out through the ports.
type Mouse struct {
	signature uint8
	config    uint8
	control   uint8
	dx        int8
	dy        int8
	buttons   uint8 // 3 bits, active-low on the wire like the real part
}

var _ hw.Device = (*Mouse)(nil)

// New returns a mouse with the power-on signature.
func New() *Mouse {
	return &Mouse{signature: 0xa5}
}

// Reset returns the adapter to its power-on state, so one mouse can be
// reused across boots instead of being rebuilt per mutant.
func (m *Mouse) Reset() {
	*m = Mouse{signature: 0xa5}
}

// Name implements hw.Device.
func (m *Mouse) Name() string { return "busmouse" }

// Move accumulates relative motion, saturating at the counter width.
func (m *Mouse) Move(dx, dy int) {
	m.dx = satAdd(m.dx, dx)
	m.dy = satAdd(m.dy, dy)
}

func satAdd(cur int8, delta int) int8 {
	v := int(cur) + delta
	if v > 127 {
		v = 127
	}
	if v < -128 {
		v = -128
	}
	return int8(v)
}

// SetButtons sets the three button states (bit 0 = left).
func (m *Mouse) SetButtons(b uint8) { m.buttons = b & 0x07 }

// index returns the current nibble selector from the control register.
func (m *Mouse) index() int { return int(m.control>>5) & 0x03 }

// Read implements hw.Device.
func (m *Mouse) Read(offset hw.Port, width hw.AccessWidth) (uint32, error) {
	switch offset {
	case offData:
		dx, dy := uint8(m.dx), uint8(m.dy)
		switch m.index() {
		case idxXLow:
			return uint32(dx & 0x0f), nil
		case idxXHigh:
			return uint32(dx >> 4), nil
		case idxYLow:
			return uint32(dy & 0x0f), nil
		default: // idxYHigh: buttons in bits 7..5, y high nibble in 3..0
			v := uint32(dy>>4) & 0x0f
			v |= uint32(m.buttons) << 5
			return v, nil
		}
	case offSignature:
		return uint32(m.signature), nil
	case offControl, offConfig:
		return 0xff, nil // write-only: the data lines float
	}
	return 0, fmt.Errorf("busmouse: read of nonexistent register %d", offset)
}

// Write implements hw.Device.
func (m *Mouse) Write(offset hw.Port, width hw.AccessWidth, value uint32) error {
	switch offset {
	case offData:
		return nil // data port writes are ignored
	case offSignature:
		m.signature = uint8(value)
		return nil
	case offControl:
		m.control = uint8(value)
		return nil
	case offConfig:
		m.config = uint8(value)
		return nil
	}
	return fmt.Errorf("busmouse: write of nonexistent register %d", offset)
}

// Config returns the last value written to the configuration register.
func (m *Mouse) Config() uint8 { return m.config }

// InterruptsEnabled decodes the interrupt bit of the control register
// (0 = enabled, matching the specification's ENABLE => '0').
func (m *Mouse) InterruptsEnabled() bool { return m.control&0x10 == 0 }
