package xlnand

import (
	"xlnand/internal/dispatch"
)

// Queue is a submission/completion handle onto the sub-system's
// multi-die dispatcher. Queues are safe for concurrent use from any
// number of goroutines; any number of queues may target one sub-system.
// A call runs on its caller's goroutine, and a batch in request order.
type Queue = dispatch.Queue

// Request is one I/O operation: an op code, a (die, block, page)
// address, the write payload, and optional per-request overrides of the
// service level (Mode) and ECC capability (T).
type Request = dispatch.Request

// Completion reports one request's outcome: payload, ECC detail, the
// modelled Start/Finish stamps on the sub-system timeline, and a typed
// error (*OpError) on failure.
type Completion = dispatch.Completion

// OpCode selects a request's operation.
type OpCode = dispatch.Op

// Request operations.
const (
	OpRead  = dispatch.OpRead
	OpWrite = dispatch.OpWrite
	OpErase = dispatch.OpErase
)

// OpError is the typed error carried by failed completions: operation,
// address, and a wrapped cause (ErrUncorrectable, ErrBadAddress,
// ErrClosed, a context error or a device error).
type OpError = dispatch.OpError

// Typed error sentinels for errors.Is.
var (
	// ErrUncorrectable reports a decode failure: the error pattern
	// exceeded the page's correction capability.
	ErrUncorrectable = dispatch.ErrUncorrectable
	// ErrBadAddress reports a die/block/page outside the geometry.
	ErrBadAddress = dispatch.ErrBadAddress
	// ErrClosed reports a submission after Close.
	ErrClosed = dispatch.ErrClosed
)

// NewQueue returns a submission handle onto the sub-system.
func (s *Subsystem) NewQueue() *Queue { return s.disp.NewQueue() }

// ReadRequest builds a read of one page.
func ReadRequest(die, block, page int) Request {
	return Request{Op: OpRead, Die: die, Block: block, Page: page}
}

// WriteRequest builds a write of one page (data must be PageSize bytes).
func WriteRequest(die, block, page int, data []byte) Request {
	return Request{Op: OpWrite, Die: die, Block: block, Page: page, Data: data}
}

// EraseRequest builds a block erase.
func EraseRequest(die, block int) Request {
	return Request{Op: OpErase, Die: die, Block: block}
}
