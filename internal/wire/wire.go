// Package wire is the per-chunk op's vocabulary — Op, OpResult, State and the
// Op* result codes, the types of every layer from codec to filter — and its
// compact binary encoding carried on the /v2 routes, the serve path's answer
// to JSON encode/decode dominating the predict round trip (DESIGN.md §10.2,
// §10.3). It imports nothing of this module. Every frame is self-describing
// and bounds-checked:
//
//	offset  size  field
//	0       2     magic 0xC5 0x2B
//	2       1     schema version (currently 1)
//	3       1     message type
//	4       4     payload length, uint32 little-endian
//	8       n     payload
//
// All numerics are fixed-width little-endian; every variable-length field
// (session ids, error messages, batch op lists) carries an explicit length
// that decoders check against both the configured Limits and the remaining
// payload, so a truncated or hostile frame fails with a typed error instead
// of a panic or an over-read. Encoders are append-style (they grow a
// caller-owned buffer and never allocate when the buffer has capacity) and
// decoders are zero-copy (session ids alias the input buffer), which is what
// lets the HTTP layer serve the steady-state path from pooled scratch.
//
// Evolution rules: the version byte is bumped only for incompatible layout
// changes (decoders reject unknown versions with ErrVersion); new message
// types extend the protocol compatibly (decoders reject unknown types with
// ErrUnknownType, so an old server answers a new client with a clean error
// rather than misparsing); within a version, payload layouts are frozen.
//
// A frame can also carry one HTTP exchange, the routing tier's other calls on
// its stream to a replica: MsgCall is route length(u16) || "METHOD
// /escaped/path" || body, MsgCallResult is status(u16, 100–599) || body.
package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// Version is the schema version this package encodes and accepts.
const Version = 1

// HeaderLen is the fixed frame header size.
const HeaderLen = 8

// The frame magic: two bytes no JSON document can start with, so a client
// that POSTs JSON at a /v2 route is rejected immediately and typed-ly.
const (
	magic0 = 0xC5
	magic1 = 0x2B
)

// ContentType is the HTTP media type the /v2 routes speak.
const ContentType = "application/x-cs2p-wire"

// MsgType identifies a frame's payload layout.
type MsgType uint8

// Message types of schema version 1.
const (
	// MsgOp is a single observe/predict operation (request).
	MsgOp MsgType = 0x01
	// MsgPrediction is a single prediction (response).
	MsgPrediction MsgType = 0x02
	// MsgBatch is a sequence of interleaved observe/predict ops (request).
	MsgBatch MsgType = 0x03
	// MsgBatchResult is the per-op result sequence (response).
	MsgBatchResult MsgType = 0x04
	// MsgError is a typed failure (response): an HTTP-aligned status code
	// plus a short message.
	MsgError MsgType = 0x05
	// MsgBatchStateResult is MsgBatchResult plus each op's post-op session
	// State (response to a batch in which some op set WantState).
	MsgBatchStateResult MsgType = 0x06
	// MsgCall is one HTTP request: a route "METHOD /escaped/path" and a body.
	MsgCall MsgType = 0x07
	// MsgCallResult is a MsgCall's HTTP status and body (response).
	MsgCallResult MsgType = 0x08
)

// Typed decode errors. Handlers map them to 400s; fuzzing asserts every
// malformed input lands on exactly one of these (never a panic).
var (
	ErrBadMagic     = errors.New("wire: bad magic")
	ErrVersion      = errors.New("wire: unsupported schema version")
	ErrUnknownType  = errors.New("wire: unknown message type")
	ErrTruncated    = errors.New("wire: truncated frame")
	ErrOversize     = errors.New("wire: length exceeds limit")
	ErrTrailingData = errors.New("wire: trailing bytes after payload")
	ErrBadValue     = errors.New("wire: invalid field value")
)

// Limits bounds every variable-length field a decoder will accept. The
// zero value is unusable; start from DefaultLimits.
type Limits struct {
	// MaxFrameBytes caps the total frame size (header + payload).
	MaxFrameBytes int
	// MaxSessionIDLen caps one session id.
	MaxSessionIDLen int
	// MaxBatchOps caps the op count in one batch frame.
	MaxBatchOps int
}

// DefaultLimits is the one source of these bounds: the HTTP layer's
// DefaultServerConfig takes its body and batch caps from here, and its
// session-id bound is MaxSessionIDLen as is.
func DefaultLimits() Limits {
	return Limits{
		MaxFrameBytes:   1 << 20,
		MaxSessionIDLen: 256,
		MaxBatchOps:     1024,
	}
}

// Op is one observe/predict operation. HasObserve distinguishes the
// stateful observe+predict round trip (the per-chunk call) from the
// stateless multi-horizon query. WantState asks for the session's post-op
// State alongside the prediction — in batch frames only (the routing tier's
// hop): a single-op MsgPrediction has nowhere to put the answer. SessionID is
// raw bytes so a decoded frame's id (it aliases the frame's buffer, valid only
// until the buffer is reused) reaches the session lookup without a string
// allocation; nothing downstream retains it. Horizon is an int because JSON
// carries one; the frame field is a u16 and the encoder saturates into it,
// far beyond any server's MaxHorizon.
type Op struct {
	SessionID    []byte
	ObservedMbps float64
	Horizon      int
	HasObserve   bool
	WantState    bool
}

// Malformed reports whether the op carries an observation no filter may
// absorb (non-finite or negative). Every backend answers OpInvalid for such
// an op without touching session state — the contract the HTTP layer's
// in-place rejection of out-of-range ops relies on.
func (op *Op) Malformed() bool {
	return op.HasObserve && (math.IsNaN(op.ObservedMbps) || math.IsInf(op.ObservedMbps, 0) || op.ObservedMbps < 0)
}

// opFixedLen is the fixed-width prefix of one encoded op:
// flags(1) + horizon(2) + observed(8) + idlen(2).
const opFixedLen = 1 + 2 + 8 + 2

const (
	flagHasObserve = 0x01
	flagWantState  = 0x02
)

// Result codes for ops. 0 is success; nonzero codes name the per-op failure
// without carrying an allocation-heavy error string.
const (
	// OpOK: the op produced a prediction.
	OpOK uint8 = 0
	// OpUnknownSession: no registered session under the op's id.
	OpUnknownSession uint8 = 1
	// OpInvalid: the op carried an unusable value and was not applied.
	OpInvalid uint8 = 2
	// OpUnavailable: the session is known but nothing could serve the op (a
	// routing tier with every replica out; the engine never returns it).
	// Single-op routes answer it as HTTP 502.
	OpUnavailable uint8 = 3
)

// State is a session's whole serving state after an op: Algorithm 1's
// filter (posterior, whether any observation has been absorbed), the epoch
// count, the 1-step prediction awaiting its score (NaN when none), and the
// identity of the model the posterior indexes. Imported under that model it
// reproduces the session exactly. An empty Posterior means no state.
type State struct {
	Posterior       []float64
	LastOneStep     float64
	ModelVersion    uint64
	ModelGeneration uint64
	Epoch           uint32
	Started         bool
}

// OpResult is one op's outcome, index-aligned with the request ops. Failures
// are codes, not errors: a 256-op batch with one evicted session must not
// cost an allocation per miss, and partial failure is the normal case at the
// edge. State is filled only for an OpOK op that set WantState, into the
// slot's existing posterior buffer: a caller that recycles results pays no
// allocation.
type OpResult struct {
	PredictionMbps float64
	Code           uint8
	State          State
}

// opResultLen is one encoded result: code(1) + prediction(8).
const opResultLen = 1 + 8

// stateFixedLen is one encoded state's fixed-width prefix: posterior count(2)
// + started(1) + epoch(4) + lastOneStep(8) + version(8) + generation(8).
const stateFixedLen = 2 + 1 + 4 + 8 + 8 + 8

// Frame is a decoded header plus its payload slice (aliasing the input).
type Frame struct {
	Type    MsgType
	Payload []byte
}

// appendHeader writes the 8-byte header with a zero length; the caller
// patches the length once the payload is appended.
func appendHeader(dst []byte, t MsgType) []byte {
	return append(dst, magic0, magic1, Version, byte(t), 0, 0, 0, 0)
}

// patchLen stamps the payload length into the header that starts at off.
func patchLen(b []byte, off int) []byte {
	binary.LittleEndian.PutUint32(b[off+4:off+8], uint32(len(b)-off-HeaderLen))
	return b
}

// PeekHeader validates the fixed header fields of a frame whose payload has
// not been read yet and returns the declared payload length. Streaming
// readers (the HTTP handlers) use it to reject bad magic, wrong versions,
// unknown types, and oversize declarations before buffering a single payload
// byte; DecodeFrame performs the same checks plus the exact-length check once
// the payload is in hand.
func PeekHeader(hdr []byte, lim Limits) (MsgType, int, error) {
	if len(hdr) < HeaderLen {
		return 0, 0, ErrTruncated
	}
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return 0, 0, ErrBadMagic
	}
	if hdr[2] != Version {
		return 0, 0, ErrVersion
	}
	t := MsgType(hdr[3])
	switch t {
	case MsgOp, MsgPrediction, MsgBatch, MsgBatchResult, MsgError, MsgBatchStateResult, MsgCall, MsgCallResult:
	default:
		return 0, 0, ErrUnknownType
	}
	n := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if lim.MaxFrameBytes > 0 && HeaderLen+n > lim.MaxFrameBytes {
		return 0, 0, ErrOversize
	}
	return t, n, nil
}

// DecodeFrame validates the header and bounds and returns the typed payload
// view. The frame must be exactly one message: trailing bytes are an error
// (the HTTP body is the outer length delimiter, so any excess is garbage).
func DecodeFrame(b []byte, lim Limits) (Frame, error) {
	t, n, err := PeekHeader(b, lim)
	if err != nil {
		return Frame{}, err
	}
	if lim.MaxFrameBytes > 0 && len(b) > lim.MaxFrameBytes {
		return Frame{}, ErrOversize
	}
	if len(b) < HeaderLen+n {
		return Frame{}, ErrTruncated
	}
	if len(b) > HeaderLen+n {
		return Frame{}, ErrTrailingData
	}
	return Frame{Type: t, Payload: b[HeaderLen:]}, nil
}

// AppendOp encodes a single-op request frame (MsgOp).
func AppendOp(dst []byte, op Op) []byte {
	off := len(dst)
	dst = appendHeader(dst, MsgOp)
	dst = appendOpBody(dst, op)
	return patchLen(dst, off)
}

func appendOpBody(dst []byte, op Op) []byte {
	var flags byte
	if op.HasObserve {
		flags |= flagHasObserve
	}
	if op.WantState {
		flags |= flagWantState
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(min(max(op.Horizon, 0), math.MaxUint16)))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(op.ObservedMbps))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(op.SessionID)))
	return append(dst, op.SessionID...)
}

// decodeOpBody reads one op starting at b[i], returning the next offset.
func decodeOpBody(b []byte, i int, lim Limits) (Op, int, error) {
	if len(b)-i < opFixedLen {
		return Op{}, 0, ErrTruncated
	}
	// Reserved flag bits must be zero: a future version can claim them
	// without old decoders silently misreading new frames.
	if b[i]&^(flagHasObserve|flagWantState) != 0 {
		return Op{}, 0, ErrBadValue
	}
	var op Op
	op.HasObserve = b[i]&flagHasObserve != 0
	op.WantState = b[i]&flagWantState != 0
	op.Horizon = int(binary.LittleEndian.Uint16(b[i+1 : i+3]))
	op.ObservedMbps = math.Float64frombits(binary.LittleEndian.Uint64(b[i+3 : i+11]))
	idLen := int(binary.LittleEndian.Uint16(b[i+11 : i+13]))
	if idLen == 0 {
		return Op{}, 0, ErrBadValue
	}
	if lim.MaxSessionIDLen > 0 && idLen > lim.MaxSessionIDLen {
		return Op{}, 0, ErrOversize
	}
	i += opFixedLen
	if len(b)-i < idLen {
		return Op{}, 0, ErrTruncated
	}
	op.SessionID = b[i : i+idLen]
	return op, i + idLen, nil
}

// DecodeOp decodes a MsgOp payload (WantState refused: nowhere to answer it).
func DecodeOp(payload []byte, lim Limits) (Op, error) {
	op, n, err := decodeOpBody(payload, 0, lim)
	if err != nil {
		return Op{}, err
	}
	if op.WantState {
		return Op{}, ErrBadValue
	}
	if n != len(payload) {
		return Op{}, ErrTrailingData
	}
	return op, nil
}

// AppendPrediction encodes a single-prediction response frame.
func AppendPrediction(dst []byte, mbps float64) []byte {
	off := len(dst)
	dst = appendHeader(dst, MsgPrediction)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(mbps))
	return patchLen(dst, off)
}

// DecodePrediction decodes a MsgPrediction payload.
func DecodePrediction(payload []byte) (float64, error) {
	if len(payload) != 8 {
		if len(payload) < 8 {
			return 0, ErrTruncated
		}
		return 0, ErrTrailingData
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(payload)), nil
}

// AppendBatch encodes a batch request frame: count(2) then the ops,
// applied by the server in order (per-session sub-order is what matters
// to the HMM filters; ops for different sessions are independent).
func AppendBatch(dst []byte, ops []Op) []byte {
	off := len(dst)
	dst = appendHeader(dst, MsgBatch)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(ops)))
	for _, op := range ops {
		dst = appendOpBody(dst, op)
	}
	return patchLen(dst, off)
}

// DecodeBatch decodes a MsgBatch payload, appending the ops to dst (reuse a
// pooled slice to keep the steady state allocation-free). Session ids alias
// payload.
func DecodeBatch(payload []byte, lim Limits, dst []Op) ([]Op, error) {
	if len(payload) < 2 {
		return dst, ErrTruncated
	}
	count := int(binary.LittleEndian.Uint16(payload[:2]))
	if count == 0 {
		return dst, ErrBadValue
	}
	if lim.MaxBatchOps > 0 && count > lim.MaxBatchOps {
		return dst, ErrOversize
	}
	i := 2
	for k := 0; k < count; k++ {
		op, next, err := decodeOpBody(payload, i, lim)
		if err != nil {
			return dst, err
		}
		dst = append(dst, op)
		i = next
	}
	if i != len(payload) {
		return dst, ErrTrailingData
	}
	return dst, nil
}

// AppendBatchResult encodes the batch response: the model generation the
// batch was served under (read once from one pinned snapshot — a batch can
// never straddle two generations' metadata), count(2), then one fixed-width
// result per op, index-aligned with the request.
func AppendBatchResult(dst []byte, generation uint64, res []OpResult) []byte {
	return appendResults(dst, MsgBatchResult, generation, res)
}

// AppendBatchStateResult encodes the state-carrying batch response: the
// MsgBatchResult layout with each op's State after its code and prediction
// (the stateFixedLen prefix, then the posterior doubles).
func AppendBatchStateResult(dst []byte, generation uint64, res []OpResult) []byte {
	return appendResults(dst, MsgBatchStateResult, generation, res)
}

func appendResults(dst []byte, t MsgType, generation uint64, res []OpResult) []byte {
	le := binary.LittleEndian
	off := len(dst)
	dst = appendHeader(dst, t)
	dst = le.AppendUint64(dst, generation)
	dst = le.AppendUint16(dst, uint16(len(res)))
	for i := range res {
		dst = append(dst, res[i].Code)
		dst = le.AppendUint64(dst, math.Float64bits(res[i].PredictionMbps))
		if t == MsgBatchResult {
			continue
		}
		st := &res[i].State
		dst = le.AppendUint16(dst, uint16(len(st.Posterior)))
		dst = append(dst, 0)
		if st.Started {
			dst[len(dst)-1] = 1
		}
		dst = le.AppendUint32(dst, st.Epoch)
		dst = le.AppendUint64(dst, math.Float64bits(st.LastOneStep))
		dst = le.AppendUint64(dst, st.ModelVersion)
		dst = le.AppendUint64(dst, st.ModelGeneration)
		for _, p := range st.Posterior {
			dst = le.AppendUint64(dst, math.Float64bits(p))
		}
	}
	return patchLen(dst, off)
}

// DecodeBatchResult decodes a MsgBatchResult payload, appending to dst.
func DecodeBatchResult(payload []byte, lim Limits, dst []OpResult) ([]OpResult, uint64, error) {
	return decodeResults(payload, lim, dst, false)
}

// DecodeBatchStateResult decodes a MsgBatchStateResult payload, appending to
// dst; posteriors reuse the buffers recycled dst slots hold (no allocation).
func DecodeBatchStateResult(payload []byte, lim Limits, dst []OpResult) ([]OpResult, uint64, error) {
	return decodeResults(payload, lim, dst, true)
}

func decodeResults(payload []byte, lim Limits, dst []OpResult, withState bool) ([]OpResult, uint64, error) {
	le := binary.LittleEndian
	if len(payload) < 10 {
		return dst, 0, ErrTruncated
	}
	gen := le.Uint64(payload[:8])
	count := int(le.Uint16(payload[8:10]))
	if lim.MaxBatchOps > 0 && count > lim.MaxBatchOps {
		return dst, 0, ErrOversize
	}
	i := 10
	for k := 0; k < count; k++ {
		if len(payload)-i < opResultLen {
			return dst, 0, ErrTruncated
		}
		r := OpResult{Code: payload[i], PredictionMbps: math.Float64frombits(le.Uint64(payload[i+1 : i+9]))}
		i += opResultLen
		if withState {
			if len(payload)-i < stateFixedLen {
				return dst, 0, ErrTruncated
			}
			n := int(le.Uint16(payload[i : i+2]))
			// Canonical encoding: the started byte is 0 or 1.
			if payload[i+2] > 1 {
				return dst, 0, ErrBadValue
			}
			r.State = State{
				Started:         payload[i+2] == 1,
				Epoch:           le.Uint32(payload[i+3 : i+7]),
				LastOneStep:     math.Float64frombits(le.Uint64(payload[i+7 : i+15])),
				ModelVersion:    le.Uint64(payload[i+15 : i+23]),
				ModelGeneration: le.Uint64(payload[i+23 : i+31]),
			}
			if i += stateFixedLen; len(payload)-i < 8*n {
				return dst, 0, ErrTruncated
			}
			if len(dst) < cap(dst) {
				r.State.Posterior = dst[:len(dst)+1][len(dst)].State.Posterior[:0]
			}
			for ; n > 0; n-- {
				r.State.Posterior = append(r.State.Posterior, math.Float64frombits(le.Uint64(payload[i:i+8])))
				i += 8
			}
		}
		dst = append(dst, r)
	}
	if i != len(payload) {
		return dst, 0, ErrTrailingData
	}
	return dst, gen, nil
}

// AppendError encodes an error response frame: status(2) + msglen(2) + msg.
// The status mirrors the HTTP status the frame rides on, so a client that
// only reads the body still learns the failure class.
func AppendError(dst []byte, status int, msg string) []byte {
	off := len(dst)
	dst = appendHeader(dst, MsgError)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(status))
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(msg)))
	dst = append(dst, msg...)
	return patchLen(dst, off)
}

// DecodeError decodes a MsgError payload. The message aliases payload.
func DecodeError(payload []byte) (status int, msg []byte, err error) {
	if len(payload) < 4 {
		return 0, nil, ErrTruncated
	}
	status = int(binary.LittleEndian.Uint16(payload[:2]))
	n := int(binary.LittleEndian.Uint16(payload[2:4]))
	if len(payload)-4 < n {
		return 0, nil, ErrTruncated
	}
	if len(payload)-4 > n {
		return 0, nil, ErrTrailingData
	}
	return status, payload[4 : 4+n], nil
}

// AppendCall encodes a call frame; the caller keeps route within 64 KiB.
func AppendCall(dst []byte, route string, body []byte) []byte {
	off := len(dst)
	dst = binary.LittleEndian.AppendUint16(appendHeader(dst, MsgCall), uint16(len(route)))
	return patchLen(append(append(dst, route...), body...), off)
}

// DecodeCall decodes a MsgCall payload: a non-empty route and the body.
func DecodeCall(payload []byte) (route, body []byte, err error) {
	if len(payload) < 2 {
		return nil, nil, ErrTruncated
	}
	n := int(binary.LittleEndian.Uint16(payload))
	if n == 0 {
		return nil, nil, ErrBadValue
	}
	if len(payload)-2 < n {
		return nil, nil, ErrTruncated
	}
	return payload[2 : 2+n], payload[2+n:], nil
}

// AppendCallResult encodes a call's reply frame. body may be dst's own bytes
// just past the status, a reply built in place: the copy then moves nothing.
func AppendCallResult(dst []byte, status int, body []byte) []byte {
	off := len(dst)
	dst = binary.LittleEndian.AppendUint16(appendHeader(dst, MsgCallResult), uint16(status))
	return patchLen(append(dst, body...), off)
}

// DecodeCallResult decodes a MsgCallResult payload: a status and the body.
func DecodeCallResult(payload []byte) (status int, body []byte, err error) {
	if len(payload) < 2 {
		return 0, nil, ErrTruncated
	}
	if status = int(binary.LittleEndian.Uint16(payload)); status < 100 || status > 599 {
		return 0, nil, ErrBadValue
	}
	return status, payload[2:], nil
}
