package dispatch

import (
	"errors"
	"fmt"
	"time"

	"xlnand/internal/controller"
	"xlnand/internal/nand"
	"xlnand/internal/sim"
)

// Op selects the operation of one queued request.
type Op int

// Request operations.
const (
	OpRead Op = iota
	OpWrite
	OpErase
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpErase:
		return "erase"
	default:
		return "op?"
	}
}

// Typed error conditions surfaced by the queue. ErrUncorrectable (decode
// failure) is re-exported from the controller so that one errors.Is chain
// covers the whole stack.
var (
	// ErrBadAddress reports a die/block/page outside the sub-system's
	// geometry.
	ErrBadAddress = errors.New("dispatch: address out of range")
	// ErrClosed reports a submission to a closed sub-system.
	ErrClosed = errors.New("dispatch: subsystem closed")
	// ErrUncorrectable aliases the controller's decode-failure sentinel.
	ErrUncorrectable = controller.ErrUncorrectable
)

// OpError is the typed error attached to a failed completion: it names
// the operation and address and wraps the cause (ErrUncorrectable,
// ErrBadAddress, ErrClosed, a context error, or a device error).
type OpError struct {
	Op    Op
	Die   int
	Block int
	Page  int
	Err   error
}

// Error implements the error interface.
func (e *OpError) Error() string {
	return fmt.Sprintf("%s %d/%d.%d: %v", e.Op, e.Die, e.Block, e.Page, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *OpError) Unwrap() error { return e.Err }

func opErr(req Request, err error) *OpError {
	return &OpError{Op: req.Op, Die: req.Die, Block: req.Block, Page: req.Page, Err: err}
}

// Request is one I/O operation submitted to a Queue.
type Request struct {
	// Op selects read, write or erase.
	Op Op
	// Die, Block, Page address the operation. Page is ignored by OpErase.
	Die   int
	Block int
	Page  int
	// Data is the write payload (exactly one page). Unused by reads and
	// erases.
	Data []byte
	// Mode overrides the sub-system's default service level for this
	// request only (nil keeps the default). The resolved mode sets the
	// write's program algorithm: ISPP-SV when nominal, ISPP-DV otherwise.
	Mode *sim.Mode
	// T pins the ECC capability for this write (0 resolves it from the
	// mode: reliability manager, or the min-UBER SV schedule).
	T int
	// Retries overrides the controller's read-recovery ladder budget for
	// this read (nil keeps the controller default; pointing at 0 forces
	// the pre-recovery single-shot read at nominal references — no
	// ladder, no predicted offset; budgets beyond the device's
	// calibrated depth are clamped). Ignored by writes and erases.
	Retries *int
	// Parity is caller-owned parity memory (nil: none, and the request
	// behaves as without the field). A read that decodes copies the
	// page's decoded parity into its head when it holds
	// Completion.ParityBytes bytes (controller.ReadPageParityInto); a
	// write programs it in place of an encode when its length is the
	// resolved level's parity length, and encodes otherwise
	// (controller.WritePageParity). Ignored by erases.
	Parity []byte
	// Tag is an opaque caller token echoed in the completion.
	Tag uint64
}

// Completion reports the outcome of one request.
type Completion struct {
	// Tag echoes the request's token.
	Tag uint64
	// Op, Die, Block, Page echo the request's operation and address.
	Op    Op
	Die   int
	Block int
	Page  int

	// Data holds the decoded page payload for reads (raw data on
	// uncorrectable reads).
	Data []byte
	// T is the ECC capability used (write: selected; read: recovered from
	// the stored parity geometry).
	T int
	// Alg is the program algorithm used (write) or recovered (read).
	Alg nand.Algorithm
	// Corrected is the number of raw bit errors repaired by a read.
	Corrected int
	// Retries is the number of recovery-ladder re-senses a read needed
	// (each one was charged on the modelled timeline).
	Retries int
	// SoftSenses is the number of component array senses the read's
	// soft-decision rung paid (0 when the read never went soft); every
	// sense was charged on the modelled timeline.
	SoftSenses int
	// ParityBytes is the spare-area consumption of a write, or of the
	// page a read sensed (its parity length).
	ParityBytes int

	// Start and Finish place the operation on the sub-system's modelled
	// timeline (virtual nanoseconds since Open): Start is the first
	// resource acquisition, Finish the release of the last pipeline
	// stage. Batch makespans and sustained throughputs derive from them.
	Start  time.Duration
	Finish time.Duration

	// Write and Read expose the full controller-level result breakdowns
	// (latency components, program statistics) when present.
	Write *controller.WriteResult
	Read  *controller.ReadResult

	// Err is nil on success, a *OpError otherwise.
	Err error
}

// Latency returns the modelled service time of the operation, queueing
// included.
func (c Completion) Latency() time.Duration { return c.Finish - c.Start }

// Geometry describes the sub-system the dispatcher drives.
type Geometry struct {
	Dies          int
	BlocksPerDie  int
	PagesPerBlock int
	PageDataBytes int
}
