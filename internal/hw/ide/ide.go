// Package ide models a PIIX4-era IDE (ATA-1) controller with one attached
// master disk, at the fidelity the paper's evaluation needs: the task-file
// register protocol, PIO data transfers, command timing (busy phases
// advanced by the virtual clock), the reset signature, and the degenerate
// behaviours mutated drivers provoke — reading the data port without DRQ,
// selecting an absent slave, issuing unknown commands, or addressing
// sectors that do not exist.
package ide

import (
	"encoding/binary"
	"fmt"

	"repro/internal/hw"
)

// Status register bits.
const (
	StatusError       = 0x01
	StatusIndex       = 0x02
	StatusCorrected   = 0x04
	StatusDataRequest = 0x08
	StatusSeekDone    = 0x10
	StatusWriteFault  = 0x20
	StatusReady       = 0x40
	StatusBusy        = 0x80
)

// Error register bits.
const (
	ErrAddrMarkNotFound = 0x01
	ErrTrack0NotFound   = 0x02
	ErrAborted          = 0x04
	ErrIDNotFound       = 0x10
	ErrUncorrectable    = 0x40
)

// ATA command opcodes implemented by the model.
const (
	CmdRecalibrate  = 0x10
	CmdReadSectors  = 0x20
	CmdWriteSectors = 0x30
	CmdSeek         = 0x70
	CmdInitParams   = 0x91
	CmdIdentify     = 0xec
	CmdSetFeatures  = 0xef
)

// SectorSize is the ATA sector size.
const SectorSize = 512

// Command-phase durations in clock ticks.
const (
	cmdBusyTicks   = 50
	resetBusyTicks = 200
	stepBusyTicks  = 10
)

// Disk is the storage behind the master drive.
type Disk struct {
	// Model is the ASCII model string reported by IDENTIFY.
	Model string
	// Cylinders, Heads, SectorsPerTrack describe the default geometry.
	Cylinders       uint16
	Heads           uint16
	SectorsPerTrack uint16
	// Sectors is the content, indexed by LBA.
	Sectors [][]byte
}

// NewDisk builds a disk over the given sector image with a geometry that
// covers it.
func NewDisk(model string, sectors [][]byte) *Disk {
	heads, spt := uint16(4), uint16(8)
	cyl := uint16((len(sectors) + int(heads)*int(spt) - 1) / (int(heads) * int(spt)))
	if cyl == 0 {
		cyl = 1
	}
	return &Disk{
		Model:           model,
		Cylinders:       cyl,
		Heads:           heads,
		SectorsPerTrack: spt,
		Sectors:         sectors,
	}
}

// transferState is the controller's data-phase state machine.
type transferState int

const (
	stateIdle transferState = iota
	stateBusy               // command accepted, BSY until busyUntil
	stateReadDRQ
	stateWriteDRQ
)

// pendingOp is what the busy phase resolves into.
type pendingOp int

const (
	opNone pendingOp = iota
	opLoadSector
	opIdentify
	opComplete
	opReset
	opWriteNext
)

// Controller is the IDE controller model. It exposes two hw.Device
// endpoints: the command block (8 ports) via the controller itself, and the
// control block (1 port) via ControlBlock.
type Controller struct {
	clock *hw.Clock
	disk  *Disk // master; the slave is absent

	feature      uint8
	sectorCount  uint8
	sectorNumber uint8
	cylLow       uint8
	cylHigh      uint8
	driveHead    uint8
	errorReg     uint8
	status       uint8
	devControl   uint8

	state       transferState
	pending     pendingOp
	busyUntil   uint64
	buf         [SectorSize]byte
	bufPos      int
	curLBA      uint32
	sectorsLeft int
	writing     bool
	resetting   bool
}

var _ hw.Device = (*Controller)(nil)

// NewController attaches a controller with one master disk to the clock.
func NewController(clock *hw.Clock, disk *Disk) *Controller {
	c := &Controller{
		clock:  clock,
		disk:   disk,
		status: StatusReady | StatusSeekDone,
	}
	clock.OnTick(c.tick)
	return c
}

// Name implements hw.Device.
func (c *Controller) Name() string { return "ide0" }

// Reset returns the controller to its power-on state: task file cleared,
// transfer state machine idle, status ready. This is a cold start (for
// the campaign engine's machine-reuse path), not an ATA soft reset — the
// latter goes through the device-control register and loads the reset
// signature.
func (c *Controller) Reset() {
	c.feature, c.sectorCount, c.sectorNumber = 0, 0, 0
	c.cylLow, c.cylHigh, c.driveHead = 0, 0, 0
	c.errorReg = 0
	c.devControl = 0
	c.status = StatusReady | StatusSeekDone
	c.state = stateIdle
	c.pending = opNone
	c.busyUntil = 0
	c.bufPos = 0
	c.curLBA = 0
	c.sectorsLeft = 0
	c.writing = false
	c.resetting = false
}

// Disk returns the attached master disk.
func (c *Controller) Disk() *Disk { return c.disk }

// slaveSelected reports whether the (absent) slave drive is selected.
func (c *Controller) slaveSelected() bool { return c.driveHead&0x10 != 0 }

// tick advances the busy-phase state machine.
func (c *Controller) tick(now uint64) {
	if c.state != stateBusy || now < c.busyUntil {
		return
	}
	switch c.pending {
	case opIdentify:
		c.fillIdentify()
		c.bufPos = 0
		c.state = stateReadDRQ
		c.status = StatusReady | StatusSeekDone | StatusDataRequest
	case opLoadSector:
		if int(c.curLBA) >= len(c.disk.Sectors) {
			c.failCommand(ErrIDNotFound)
			return
		}
		copy(c.buf[:], c.disk.Sectors[c.curLBA])
		c.bufPos = 0
		c.state = stateReadDRQ
		c.status = StatusReady | StatusSeekDone | StatusDataRequest
	case opComplete:
		c.state = stateIdle
		c.status = StatusReady | StatusSeekDone
	case opReset:
		c.resetting = false
		c.state = stateIdle
		c.signature()
	case opWriteNext:
		c.state = stateWriteDRQ
		c.status = StatusReady | StatusSeekDone | StatusDataRequest
	}
	c.pending = opNone
}

// signature loads the ATA reset signature into the task file.
func (c *Controller) signature() {
	c.sectorCount = 1
	c.sectorNumber = 1
	c.cylLow = 0
	c.cylHigh = 0
	c.errorReg = 0x01 // diagnostics passed
	c.status = StatusReady | StatusSeekDone
}

func (c *Controller) failCommand(errBits uint8) {
	c.errorReg = errBits
	c.state = stateIdle
	c.pending = opNone
	c.status = StatusReady | StatusSeekDone | StatusError
}

// beginBusy enters the busy phase for d ticks resolving into op.
func (c *Controller) beginBusy(d uint64, op pendingOp) {
	c.state = stateBusy
	c.pending = op
	c.busyUntil = c.clock.Now() + d
	c.status = StatusBusy
}

// targetLBA decodes the addressing registers per the LBA-mode bit.
func (c *Controller) targetLBA() (uint32, bool) {
	if c.driveHead&0x40 != 0 { // LBA mode
		lba := uint32(c.driveHead&0x0f)<<24 |
			uint32(c.cylHigh)<<16 |
			uint32(c.cylLow)<<8 |
			uint32(c.sectorNumber)
		return lba, int(lba) < len(c.disk.Sectors)
	}
	// CHS: sectors are 1-based.
	cyl := uint32(c.cylHigh)<<8 | uint32(c.cylLow)
	head := uint32(c.driveHead & 0x0f)
	sec := uint32(c.sectorNumber)
	if sec == 0 || head >= uint32(c.disk.Heads) || sec > uint32(c.disk.SectorsPerTrack) {
		return 0, false
	}
	lba := (cyl*uint32(c.disk.Heads)+head)*uint32(c.disk.SectorsPerTrack) + sec - 1
	return lba, int(lba) < len(c.disk.Sectors)
}

// command dispatches a write to the command register.
func (c *Controller) command(op uint8) {
	if c.status&StatusBusy != 0 {
		return // commands while busy are ignored
	}
	if c.slaveSelected() {
		return // nobody home
	}
	c.errorReg = 0
	count := int(c.sectorCount)
	if count == 0 {
		count = 256
	}
	switch op {
	case CmdIdentify:
		c.sectorsLeft = 1
		c.writing = false
		c.beginBusy(cmdBusyTicks, opIdentify)
	case CmdReadSectors, CmdReadSectors | 1: // with/without retry
		lba, ok := c.targetLBA()
		if !ok {
			c.failCommand(ErrIDNotFound)
			return
		}
		c.curLBA = lba
		c.sectorsLeft = count
		c.writing = false
		c.beginBusy(cmdBusyTicks, opLoadSector)
	case CmdWriteSectors, CmdWriteSectors | 1:
		lba, ok := c.targetLBA()
		if !ok {
			c.failCommand(ErrIDNotFound)
			return
		}
		c.curLBA = lba
		c.sectorsLeft = count
		c.writing = true
		c.bufPos = 0
		c.state = stateWriteDRQ
		c.status = StatusReady | StatusSeekDone | StatusDataRequest
	case CmdRecalibrate, CmdSeek, CmdInitParams, CmdSetFeatures:
		c.beginBusy(cmdBusyTicks, opComplete)
	default:
		c.failCommand(ErrAborted)
	}
}

// fillIdentify builds the 512-byte IDENTIFY DEVICE block.
func (c *Controller) fillIdentify() {
	for i := range c.buf {
		c.buf[i] = 0
	}
	put16 := func(word int, v uint16) {
		binary.LittleEndian.PutUint16(c.buf[word*2:], v)
	}
	put16(0, 0x0040) // fixed drive
	put16(1, c.disk.Cylinders)
	put16(3, c.disk.Heads)
	put16(6, c.disk.SectorsPerTrack)
	total := uint32(len(c.disk.Sectors))
	put16(60, uint16(total))
	put16(61, uint16(total>>16))
	put16(49, 0x0200) // LBA supported
	// Model string in words 27..46, ASCII with bytes swapped per ATA.
	model := c.disk.Model
	for i := 0; i < 40; i++ {
		ch := byte(' ')
		if i < len(model) {
			ch = model[i]
		}
		c.buf[27*2+(i^1)] = ch
	}
}

// dataRead services a 16-bit read of the data port.
func (c *Controller) dataRead() uint16 {
	if c.state != stateReadDRQ || c.status&StatusDataRequest == 0 {
		return 0xffff // floating bus: no data phase active
	}
	v := binary.LittleEndian.Uint16(c.buf[c.bufPos:])
	c.bufPos += 2
	if c.bufPos >= SectorSize {
		c.sectorsLeft--
		if c.sectorsLeft > 0 {
			c.curLBA++
			c.beginBusy(stepBusyTicks, opLoadSector)
		} else {
			c.state = stateIdle
			c.status = StatusReady | StatusSeekDone
		}
	}
	return v
}

// dataWrite services a 16-bit write of the data port.
func (c *Controller) dataWrite(v uint16) {
	if c.state != stateWriteDRQ || c.status&StatusDataRequest == 0 {
		return // dropped on the floor
	}
	binary.LittleEndian.PutUint16(c.buf[c.bufPos:], v)
	c.bufPos += 2
	if c.bufPos >= SectorSize {
		if int(c.curLBA) < len(c.disk.Sectors) {
			copy(c.disk.Sectors[c.curLBA], c.buf[:])
		}
		c.sectorsLeft--
		c.bufPos = 0
		if c.sectorsLeft > 0 {
			c.curLBA++
			c.beginBusy(stepBusyTicks, opWriteNext)
		} else {
			c.state = stateIdle
			c.status = StatusReady | StatusSeekDone
		}
	}
}

// Read implements hw.Device for the command block.
func (c *Controller) Read(offset hw.Port, width hw.AccessWidth) (uint32, error) {
	switch offset {
	case 0:
		if width != hw.Width16 {
			return 0xff, nil // 8-bit poke at the data port yields garbage
		}
		if c.slaveSelected() {
			return 0xffff, nil
		}
		return uint32(c.dataRead()), nil
	case 1:
		if c.slaveSelected() {
			return 0, nil
		}
		return uint32(c.errorReg), nil
	case 2:
		return uint32(c.sectorCount), nil
	case 3:
		return uint32(c.sectorNumber), nil
	case 4:
		return uint32(c.cylLow), nil
	case 5:
		return uint32(c.cylHigh), nil
	case 6:
		return uint32(c.driveHead | 0xa0), nil
	case 7:
		if c.slaveSelected() {
			return 0, nil
		}
		return uint32(c.status), nil
	}
	return 0, fmt.Errorf("ide: read of nonexistent register %d", offset)
}

// Write implements hw.Device for the command block.
func (c *Controller) Write(offset hw.Port, width hw.AccessWidth, value uint32) error {
	switch offset {
	case 0:
		if width == hw.Width16 && !c.slaveSelected() {
			c.dataWrite(uint16(value))
		}
		return nil
	case 1:
		c.feature = uint8(value)
		return nil
	case 2:
		c.sectorCount = uint8(value)
		return nil
	case 3:
		c.sectorNumber = uint8(value)
		return nil
	case 4:
		c.cylLow = uint8(value)
		return nil
	case 5:
		c.cylHigh = uint8(value)
		return nil
	case 6:
		c.driveHead = uint8(value)
		return nil
	case 7:
		c.command(uint8(value))
		return nil
	}
	return fmt.Errorf("ide: write of nonexistent register %d", offset)
}

// controlBlock adapts the control-block port to hw.Device.
type controlBlock struct {
	c *Controller
}

var _ hw.Device = (*controlBlock)(nil)

// ControlBlock returns the device endpoint for the control block (alternate
// status / device control at 0x3f6).
func (c *Controller) ControlBlock() hw.Device { return &controlBlock{c: c} }

// Name implements hw.Device.
func (b *controlBlock) Name() string { return "ide0-ctl" }

// Read implements hw.Device: alternate status.
func (b *controlBlock) Read(offset hw.Port, width hw.AccessWidth) (uint32, error) {
	if offset != 0 {
		return 0, fmt.Errorf("ide-ctl: read of nonexistent register %d", offset)
	}
	if b.c.slaveSelected() {
		return 0, nil
	}
	return uint32(b.c.status), nil
}

// Write implements hw.Device: device control, including soft reset.
func (b *controlBlock) Write(offset hw.Port, width hw.AccessWidth, value uint32) error {
	if offset != 0 {
		return fmt.Errorf("ide-ctl: write of nonexistent register %d", offset)
	}
	prev := b.c.devControl
	b.c.devControl = uint8(value)
	if value&0x04 != 0 && !b.c.resetting {
		// SRST asserted: the drive goes busy.
		b.c.resetting = true
		b.c.status = StatusBusy
		b.c.state = stateBusy
		b.c.pending = opNone // wait for release
	}
	if prev&0x04 != 0 && value&0x04 == 0 && b.c.resetting {
		// SRST released: finish the reset after the reset delay.
		b.c.beginBusy(resetBusyTicks, opReset)
	}
	return nil
}
