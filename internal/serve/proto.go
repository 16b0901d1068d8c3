// Wire protocol: length-prefixed binary frames over a byte stream.
//
// Every frame is a 4-byte big-endian payload length followed by the payload.
// Request payloads are fixed-size (28 bytes); response payloads are a 4-byte
// header followed by either fixed-size candidate records (status OK) or a
// UTF-8 error message (status error). Lengths are bounded by MaxFrame, so a
// corrupt or hostile length prefix cannot make the daemon allocate
// unboundedly. Malformed frames are a per-connection error: the handler
// replies with a status-error frame where possible and closes that
// connection; the daemon and every other stream keep serving (the fuzz
// harness and the malformed-frame test pin the never-panic property).
package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Protocol constants.
const (
	// Version is the base wire protocol version. Requests carrying any
	// version other than Version or VersionTraced are rejected.
	Version = 1

	// VersionTraced is the version byte of a trace-context request frame:
	// the base request plus a 16-byte trace context (TraceID, SpanID) so
	// client replay spans and server spans link into one merged timeline.
	// The extension is version-gated, not flag-gated, so a v1 decoder
	// rejects it cleanly by version instead of misreading the length, and
	// old clients that never send it are untouched.
	VersionTraced = 2

	// MaxFrame bounds the payload length of any frame in either direction.
	MaxFrame = 1 << 16

	// RequestLen is the exact payload length of a base (v1) request frame.
	RequestLen = 28

	// RequestLenTraced is the exact payload length of a trace-context (v2)
	// request frame: RequestLen plus TraceID and SpanID.
	RequestLenTraced = RequestLen + 16

	// candLen is the encoded size of one response candidate.
	candLen = 24

	// respHeaderLen is the fixed response header (version, status, tier,
	// count).
	respHeaderLen = 4

	// maxCands is the most candidates a response carries: the count is one
	// byte. New rejects a Degree above it.
	maxCands = 255
)

// Request opcodes.
const (
	// OpPredict advances the stream's session with (PC, Addr) and returns
	// prefetch candidates.
	OpPredict = 1
	// OpClose discards the stream's session state.
	OpClose = 2
	// OpPing is a liveness no-op.
	OpPing = 3
)

// Request flag bits.
const (
	// FlagFast asks for the distilled fast tier; the server falls back to
	// the model tier when it has no table loaded.
	FlagFast = 1
)

// Response status codes.
const (
	StatusOK    = 0
	StatusError = 1
)

// Response tier codes.
const (
	TierModel = 0
	TierFast  = 1
)

// Request is one decoded request frame. Stream identifies the session; PC
// and Addr are the access being appended to it. HasCtx marks a v2 frame
// carrying a trace context: TraceID identifies the client's trace, SpanID
// the client-side span for this request — the server stamps its async
// lifecycle marks with SpanID so tracing.Merge pairs them into the
// client's span. HasCtx is part of the frame's identity (it selects the
// version byte), which keeps decode∘encode canonical even when both ids
// are zero.
type Request struct {
	Op     byte
	Flags  byte
	Stream uint64
	PC     uint64
	Addr   uint64

	HasCtx  bool
	TraceID uint64
	SpanID  uint64
}

// Candidate is one prefetch candidate on the wire. PageTok/OffTok are the
// model's vocabulary token ids (-1 for the next-line fallback, which has no
// tokens); ScoreBits is math.Float64bits of the model score (0 on the fast
// tier, which stores f16 probabilities — the differential tests compare
// these bits exactly); Addr is the decoded prefetch byte address, 0 when the
// tokens did not decode against the trigger.
type Candidate struct {
	PageTok   int32
	OffTok    int32
	ScoreBits uint64
	Addr      uint64
}

// Response is one decoded response frame. Err is set iff Status ==
// StatusError.
type Response struct {
	Status byte
	Tier   byte
	Cands  []Candidate
	Err    string
}

// Decode errors. ErrFrameTooLarge is returned by ReadFrame for oversized
// length prefixes; the rest come from DecodeRequest/DecodeResponse.
var (
	ErrFrameTooLarge = errors.New("serve: frame exceeds MaxFrame")
	errBadLength     = errors.New("serve: bad request length")
	errBadVersion    = errors.New("serve: unsupported protocol version")
	errBadOp         = errors.New("serve: unknown opcode")
	errBadReserved   = errors.New("serve: nonzero reserved byte")
)

// EncodeRequest appends the frame (length prefix included) for r to dst and
// returns the extended slice. A request with HasCtx set encodes as a v2
// trace-context frame; otherwise the v1 layout is byte-identical to every
// previous release.
func EncodeRequest(dst []byte, r Request) []byte {
	if r.HasCtx {
		dst = binary.BigEndian.AppendUint32(dst, RequestLenTraced)
		dst = append(dst, VersionTraced, r.Op, r.Flags, 0)
	} else {
		dst = binary.BigEndian.AppendUint32(dst, RequestLen)
		dst = append(dst, Version, r.Op, r.Flags, 0)
	}
	dst = binary.BigEndian.AppendUint64(dst, r.Stream)
	dst = binary.BigEndian.AppendUint64(dst, r.PC)
	dst = binary.BigEndian.AppendUint64(dst, r.Addr)
	if r.HasCtx {
		dst = binary.BigEndian.AppendUint64(dst, r.TraceID)
		dst = binary.BigEndian.AppendUint64(dst, r.SpanID)
	}
	return dst
}

// DecodeRequest parses a request payload (the frame body, after the length
// prefix). The version byte selects the layout: v1 is the 28-byte base
// request, v2 appends the 16-byte trace context; a version/length mismatch
// (truncated context, padded base frame) is rejected. It never panics on
// arbitrary input — the fuzz target pins that.
func DecodeRequest(p []byte) (Request, error) {
	if len(p) != RequestLen && len(p) != RequestLenTraced {
		return Request{}, fmt.Errorf("%w: %d bytes, want %d or %d",
			errBadLength, len(p), RequestLen, RequestLenTraced)
	}
	switch p[0] {
	case Version:
		if len(p) != RequestLen {
			return Request{}, fmt.Errorf("%w: version %d frame is %d bytes, want %d",
				errBadLength, Version, len(p), RequestLen)
		}
	case VersionTraced:
		if len(p) != RequestLenTraced {
			return Request{}, fmt.Errorf("%w: version %d frame is %d bytes, want %d",
				errBadLength, VersionTraced, len(p), RequestLenTraced)
		}
	default:
		return Request{}, fmt.Errorf("%w: %d", errBadVersion, p[0])
	}
	op := p[1]
	if op != OpPredict && op != OpClose && op != OpPing {
		return Request{}, fmt.Errorf("%w: %d", errBadOp, op)
	}
	if p[3] != 0 {
		return Request{}, errBadReserved
	}
	r := Request{
		Op:     op,
		Flags:  p[2],
		Stream: binary.BigEndian.Uint64(p[4:12]),
		PC:     binary.BigEndian.Uint64(p[12:20]),
		Addr:   binary.BigEndian.Uint64(p[20:28]),
	}
	if p[0] == VersionTraced {
		r.HasCtx = true
		r.TraceID = binary.BigEndian.Uint64(p[28:36])
		r.SpanID = binary.BigEndian.Uint64(p[36:44])
	}
	return r, nil
}

// EncodeResponse appends the frame (length prefix included) for r to dst and
// returns the extended slice. Error messages are truncated to fit MaxFrame.
func EncodeResponse(dst []byte, r *Response) []byte {
	if r.Status != StatusOK {
		msg := r.Err
		if len(msg) > MaxFrame-respHeaderLen {
			msg = msg[:MaxFrame-respHeaderLen]
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(respHeaderLen+len(msg)))
		dst = append(dst, Version, r.Status, r.Tier, 0)
		return append(dst, msg...)
	}
	n := len(r.Cands)
	if n > maxCands {
		n = maxCands
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(respHeaderLen+n*candLen))
	dst = append(dst, Version, r.Status, r.Tier, byte(n))
	for _, c := range r.Cands[:n] {
		dst = binary.BigEndian.AppendUint32(dst, uint32(c.PageTok))
		dst = binary.BigEndian.AppendUint32(dst, uint32(c.OffTok))
		dst = binary.BigEndian.AppendUint64(dst, c.ScoreBits)
		dst = binary.BigEndian.AppendUint64(dst, c.Addr)
	}
	return dst
}

// DecodeResponse parses a response payload into r, reusing r.Cands storage.
// Like DecodeRequest it never panics on arbitrary input.
func DecodeResponse(p []byte, r *Response) error {
	if len(p) < respHeaderLen {
		return fmt.Errorf("serve: short response payload (%d bytes)", len(p))
	}
	if p[0] != Version {
		return fmt.Errorf("%w: %d", errBadVersion, p[0])
	}
	r.Status = p[1]
	r.Tier = p[2]
	r.Cands = r.Cands[:0]
	r.Err = ""
	body := p[respHeaderLen:]
	if r.Status != StatusOK {
		r.Err = string(body)
		return nil
	}
	n := int(p[3])
	if len(body) != n*candLen {
		return fmt.Errorf("serve: response body %d bytes, want %d candidates x %d", len(body), n, candLen)
	}
	for i := 0; i < n; i++ {
		b := body[i*candLen:]
		r.Cands = append(r.Cands, Candidate{
			PageTok:   int32(binary.BigEndian.Uint32(b[0:4])),
			OffTok:    int32(binary.BigEndian.Uint32(b[4:8])),
			ScoreBits: binary.BigEndian.Uint64(b[8:16]),
			Addr:      binary.BigEndian.Uint64(b[16:24]),
		})
	}
	return nil
}

// ReadFrame reads one length-prefixed frame payload into buf (grown as
// needed) and returns the payload slice. A length prefix above MaxFrame is a
// protocol error (ErrFrameTooLarge), not an allocation.
func ReadFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// WriteFrame writes an already-encoded frame (length prefix included) and
// flushes it.
func WriteFrame(bw *bufio.Writer, frame []byte) error {
	if _, err := bw.Write(frame); err != nil {
		return err
	}
	return bw.Flush()
}
