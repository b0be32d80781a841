package ne2000

import (
	"fmt"

	"repro/internal/hw"
)

// Port offsets within the adapter's window (the 8390 register file is
// mapped by the specification's three port parameters, not one window, so
// the model exposes three hw.Device endpoints).
const (
	// MemStart and MemStop bound the on-board packet memory in pages.
	MemStart = 0x40
	MemStop  = 0x80
	pageSize = 256
)

// Interrupt status bits.
const (
	IsrPacketReceived  = 0x01
	IsrPacketSent      = 0x02
	IsrReceiveError    = 0x04
	IsrTransmitError   = 0x08
	IsrOverwrite       = 0x10
	IsrCounterOverflow = 0x20
	IsrRemoteDone      = 0x40
	IsrReset           = 0x80
)

// NIC is the adapter model.
type NIC struct {
	mem [MemStop * pageSize]byte

	// Page-0/1 register file.
	cr     uint8
	pstart uint8
	pstop  uint8
	bnry   uint8
	tpsr   uint8
	tbcr   uint16
	isr    uint8
	rsar   uint16
	rbcr   uint16
	rcr    uint8
	tcr    uint8
	dcr    uint8
	imr    uint8
	par    [6]uint8
	mar    [8]uint8
	curr   uint8
	tsr    uint8
	rsr    uint8
	cntr   [3]uint8

	stopped bool
}

// New returns a NIC in the post-hardware-reset state.
func New() *NIC {
	return &NIC{isr: IsrReset, stopped: true, curr: MemStart + 1, bnry: MemStart}
}

// Reset returns the NIC to the cold power-on state New returns: packet
// memory cleared, the whole register file rewound. It is the campaign
// worker's rig-reuse hook — distinct from the warm reset the reset port
// performs, which only stops the core and raises the reset latch.
func (n *NIC) Reset() {
	*n = NIC{isr: IsrReset, stopped: true, curr: MemStart + 1, bnry: MemStart}
}

// page returns the register page selected by CR bits 7..6.
func (n *NIC) page() int { return int(n.cr>>6) & 3 }

// remoteOp returns CR bits 5..3.
func (n *NIC) remoteOp() int { return int(n.cr>>3) & 7 }

// MAC returns the station address programmed into PAR0..5.
func (n *NIC) MAC() [6]byte {
	var m [6]byte
	copy(m[:], n.par[:])
	return m
}

// Mem returns a copy of the on-board packet memory (test inspection).
func (n *NIC) Mem() []byte {
	out := make([]byte, len(n.mem))
	copy(out, n.mem[:])
	return out
}

// registers is the 16-port 8390 register file endpoint.
type registers struct{ n *NIC }

// dataPort is the 16-bit remote-DMA data port endpoint.
type dataPort struct{ n *NIC }

// resetPort is the adapter reset endpoint.
type resetPort struct{ n *NIC }

var (
	_ hw.Device = (*registers)(nil)
	_ hw.Device = (*dataPort)(nil)
	_ hw.Device = (*resetPort)(nil)
)

// Registers returns the 8390 register-file endpoint (16 ports).
func (n *NIC) Registers() hw.Device { return &registers{n: n} }

// DataPort returns the remote-DMA data-port endpoint (1 port, 16-bit).
func (n *NIC) DataPort() hw.Device { return &dataPort{n: n} }

// ResetPort returns the adapter reset endpoint (1 port).
func (n *NIC) ResetPort() hw.Device { return &resetPort{n: n} }

// Name implements hw.Device.
func (r *registers) Name() string { return "ne2000" }

// Read implements hw.Device for the register file.
func (r *registers) Read(offset hw.Port, width hw.AccessWidth) (uint32, error) {
	n := r.n
	if offset == 0 {
		return uint32(n.cr), nil
	}
	if n.page() == 1 {
		switch {
		case offset >= 1 && offset <= 6:
			return uint32(n.par[offset-1]), nil
		case offset == 7:
			return uint32(n.curr), nil
		default:
			return uint32(n.mar[offset-8]), nil
		}
	}
	switch offset {
	case 3:
		return uint32(n.bnry), nil
	case 4:
		return uint32(n.tsr), nil
	case 7:
		return uint32(n.isr), nil
	case 12:
		return uint32(n.rsr), nil
	case 13, 14, 15:
		v := n.cntr[offset-13]
		n.cntr[offset-13] = 0 // tally counters clear on read
		return uint32(v), nil
	default:
		return 0, nil // CLDA/CRDA and friends: not modelled, read as zero
	}
}

// Write implements hw.Device for the register file.
func (r *registers) Write(offset hw.Port, width hw.AccessWidth, value uint32) error {
	n := r.n
	v := uint8(value)
	if offset == 0 {
		n.writeCR(v)
		return nil
	}
	if n.page() == 1 {
		switch {
		case offset >= 1 && offset <= 6:
			n.par[offset-1] = v
		case offset == 7:
			n.curr = v
		default:
			n.mar[offset-8] = v
		}
		return nil
	}
	switch offset {
	case 1:
		n.pstart = v
	case 2:
		n.pstop = v
	case 3:
		n.bnry = v
	case 4:
		n.tpsr = v
	case 5:
		n.tbcr = n.tbcr&0xff00 | uint16(v)
	case 6:
		n.tbcr = n.tbcr&0x00ff | uint16(v)<<8
	case 7:
		n.isr &^= v // write 1 to clear
	case 8:
		n.rsar = n.rsar&0xff00 | uint16(v)
	case 9:
		n.rsar = n.rsar&0x00ff | uint16(v)<<8
	case 10:
		n.rbcr = n.rbcr&0xff00 | uint16(v)
	case 11:
		n.rbcr = n.rbcr&0x00ff | uint16(v)<<8
	case 12:
		n.rcr = v
	case 13:
		n.tcr = v
	case 14:
		n.dcr = v
	case 15:
		n.imr = v
	}
	return nil
}

// writeCR handles command-register writes: start/stop, remote-DMA abort,
// and transmit trigger.
func (n *NIC) writeCR(v uint8) {
	n.cr = v
	if v&0x01 != 0 { // STP
		n.stopped = true
	}
	if v&0x02 != 0 { // STA
		n.stopped = false
		n.isr &^= IsrReset
	}
	if v&0x04 != 0 && !n.stopped { // TXP
		n.transmit()
		n.cr &^= 0x04 // self-clearing
	}
}

// transmit sends the packet at TPSR/TBCR. In loopback mode (any non-zero
// loopback selection in TCR) the frame is delivered back into the receive
// ring; otherwise it leaves the (simulated) wire and only TSR/ISR update.
func (n *NIC) transmit() {
	start := int(n.tpsr) * pageSize
	length := int(n.tbcr)
	if start+length > len(n.mem) || length == 0 {
		n.isr |= IsrTransmitError
		n.tsr = 0x20 // FU: fifo underrun-ish failure
		return
	}
	n.tsr = 0x01 // PTX
	n.isr |= IsrPacketSent
	if n.tcr>>1&0x03 != 0 {
		frame := make([]byte, length)
		copy(frame, n.mem[start:start+length])
		n.Receive(frame)
	}
}

// Receive delivers a frame into the receive ring with the standard 8390
// 4-byte header (status, next page, length little-endian).
func (n *NIC) Receive(frame []byte) {
	if n.stopped || n.pstart < MemStart || n.pstop > MemStop || n.pstart >= n.pstop {
		n.isr |= IsrReceiveError
		return
	}
	if n.curr < n.pstart || n.curr >= n.pstop {
		// A misprogrammed write pointer outside the ring: the real chip
		// would scribble over arbitrary packet memory; the model flags it.
		n.isr |= IsrReceiveError
		n.rsr = 0x02
		return
	}
	total := len(frame) + 4
	pages := (total + pageSize - 1) / pageSize
	ring := int(n.pstop - n.pstart)
	if pages >= ring {
		n.isr |= IsrReceiveError
		n.rsr = 0x02
		return
	}
	cur := n.curr
	next := cur + uint8(pages)
	if next >= n.pstop {
		next = n.pstart + (next - n.pstop)
	}
	if next == n.bnry {
		n.isr |= IsrOverwrite
		return
	}
	// Write header + frame, wrapping at PSTOP.
	hdr := []byte{0x01, next, byte(total), byte(total >> 8)}
	pos := int(cur) * pageSize
	writeByte := func(b byte) {
		n.mem[pos] = b
		pos++
		if pos >= int(n.pstop)*pageSize {
			pos = int(n.pstart) * pageSize
		}
	}
	for _, b := range hdr {
		writeByte(b)
	}
	for _, b := range frame {
		writeByte(b)
	}
	n.curr = next
	n.rsr = 0x01
	n.isr |= IsrPacketReceived
}

// Name implements hw.Device.
func (d *dataPort) Name() string { return "ne2000-data" }

// Read implements hw.Device: remote-DMA read.
func (d *dataPort) Read(offset hw.Port, width hw.AccessWidth) (uint32, error) {
	n := d.n
	if n.remoteOp() != 1 || n.rbcr == 0 {
		return 0xffff, nil
	}
	step := 1
	if width == hw.Width16 {
		step = 2
	}
	var v uint32
	for i := 0; i < step; i++ {
		addr := int(n.rsar)
		var b byte
		if addr < len(n.mem) {
			b = n.mem[addr]
		} else {
			b = 0xff
		}
		v |= uint32(b) << uint(8*i)
		n.rsar++
		if n.rbcr > 0 {
			n.rbcr--
		}
	}
	if n.rbcr == 0 {
		n.isr |= IsrRemoteDone
	}
	return v, nil
}

// Write implements hw.Device: remote-DMA write.
func (d *dataPort) Write(offset hw.Port, width hw.AccessWidth, value uint32) error {
	n := d.n
	if n.remoteOp() != 2 || n.rbcr == 0 {
		return nil // dropped: no remote write programmed
	}
	step := 1
	if width == hw.Width16 {
		step = 2
	}
	for i := 0; i < step; i++ {
		addr := int(n.rsar)
		if addr < len(n.mem) {
			n.mem[addr] = byte(value >> uint(8*i))
		}
		n.rsar++
		if n.rbcr > 0 {
			n.rbcr--
		}
	}
	if n.rbcr == 0 {
		n.isr |= IsrRemoteDone
	}
	return nil
}

// Name implements hw.Device.
func (p *resetPort) Name() string { return "ne2000-reset" }

// Read implements hw.Device: reading the reset port resets the adapter.
func (p *resetPort) Read(offset hw.Port, width hw.AccessWidth) (uint32, error) {
	p.n.reset()
	return 0xff, nil
}

// Write implements hw.Device: writing completes the reset pulse.
func (p *resetPort) Write(offset hw.Port, width hw.AccessWidth, value uint32) error {
	p.n.reset()
	return nil
}

func (n *NIC) reset() {
	n.stopped = true
	n.isr = IsrReset
	n.cr = 0x21 // page 0, abort DMA, stopped
}

// String summarises the NIC state for diagnostics.
func (n *NIC) String() string {
	return fmt.Sprintf("ne2000{cr=%#02x curr=%#02x bnry=%#02x isr=%#02x}",
		n.cr, n.curr, n.bnry, n.isr)
}
