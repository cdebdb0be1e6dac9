// Package probenet implements the framed wire protocol between the
// Memhist front end and the headless measurement probe of the paper's
// Fig. 6 architecture. The original sketch exchanged one bare JSON blob
// per connection; probenet replaces it with a versioned, length-prefixed
// and checksummed framing so that a flaky link, a slow peer or a
// garbage-emitting endpoint produces a typed, recoverable error instead
// of a hang, an OOM or a silently corrupt histogram.
//
// Wire layout of every frame (big-endian):
//
//	offset 0: magic   "NP" (2 bytes)
//	offset 2: version (1 byte, must equal Version)
//	offset 3: type    (1 byte, FrameType)
//	offset 4: length  (4 bytes, payload size, ≤ MaxFrame)
//	offset 8: crc32   (4 bytes, IEEE checksum of the payload)
//	offset 12: payload (JSON)
//
// A connection starts with the server sending a HELLO frame carrying
// the protocol version and the probe's capabilities (workload and
// machine names). The client then issues any number of REQUEST and PING
// frames; each is answered by a RESPONSE/PONG echoing the request ID,
// or by an ERROR frame with a machine-readable code.
package probenet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
)

// Version is the protocol version spoken by this package. Peers with a
// different version refuse each other during the HELLO handshake (and
// at the frame level, since every header carries the version).
const Version = 1

// MaxFrame bounds the payload size of a single frame so that a garbage
// or malicious peer cannot make the other side allocate unbounded
// memory. Histograms are a few KiB; 1 MiB leaves ample headroom.
const MaxFrame = 1 << 20

const headerSize = 12

// FrameType discriminates the frames of the probe protocol.
type FrameType uint8

const (
	// FrameHello is sent by the server on accept: version + capabilities.
	FrameHello FrameType = iota + 1
	// FrameRequest carries a measurement request from the client.
	FrameRequest
	// FrameResponse carries the measured histogram back.
	FrameResponse
	// FrameError carries a machine-readable error instead of a response.
	FrameError
	// FramePing is a client health check.
	FramePing
	// FramePong answers a PING with the probe's stats.
	FramePong
	// FrameHeartbeat is a fleet probe's periodic liveness beacon to its
	// coordinator. Peers that predate the fleet control plane never see
	// it: probes only send heartbeats after registering with a
	// coordinator, and coordinators require a probe identity first.
	FrameHeartbeat

	frameTypeMax = FrameHeartbeat
)

// String names the frame type for logs and errors.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "HELLO"
	case FrameRequest:
		return "REQUEST"
	case FrameResponse:
		return "RESPONSE"
	case FrameError:
		return "ERROR"
	case FramePing:
		return "PING"
	case FramePong:
		return "PONG"
	case FrameHeartbeat:
		return "HEARTBEAT"
	}
	return fmt.Sprintf("FrameType(%d)", uint8(t))
}

// Hello is the server's handshake: protocol version plus the probe's
// capabilities, letting the client fail fast on requests the probe can
// never serve. In the fleet direction the roles reverse — a probe
// dialling its coordinator speaks first with a Hello carrying its
// identity — so the identity fields are optional and omitted from the
// wire when empty, keeping the classic front-end handshake
// byte-identical to pre-fleet probes.
type Hello struct {
	Version   int      `json:"version"`
	Workloads []string `json:"workloads,omitempty"`
	Machines  []string `json:"machines,omitempty"`
	MaxFrame  int      `json:"max_frame,omitempty"`
	// ProbeID names the probe for fleet registration and health
	// tracking; empty outside the fleet control plane.
	ProbeID string `json:"probe_id,omitempty"`
	// Instance distinguishes restarts of the same probe: a coordinator
	// seeing a new instance for a known ProbeID knows the probe
	// restarted (a flap) rather than resumed.
	Instance uint64 `json:"instance,omitempty"`
}

// Heartbeat is a fleet probe's periodic liveness beacon. Seq increases
// monotonically per connection so a coordinator can detect reordered or
// replayed beacons; InFlight reports how many cells the probe is
// currently serving.
type Heartbeat struct {
	ProbeID  string          `json:"probe_id"`
	Instance uint64          `json:"instance,omitempty"`
	Seq      uint64          `json:"seq"`
	InFlight int             `json:"in_flight,omitempty"`
	Stats    json.RawMessage `json:"stats,omitempty"`
}

// Request envelopes one measurement request. The Body is opaque to
// probenet (the memhist request JSON); TimeoutMillis carries the
// client's per-request deadline, which the client enforces itself. A
// probe of this version does not act on it.
type Request struct {
	ID            uint64          `json:"id"`
	TimeoutMillis int64           `json:"timeout_ms,omitempty"`
	Body          json.RawMessage `json:"body"`
}

// Response envelopes a successful answer, echoing the request ID.
type Response struct {
	ID   uint64          `json:"id"`
	Body json.RawMessage `json:"body"`
}

// ErrorMsg is the payload of an ERROR frame. ID echoes the request that
// failed; ID 0 means the error concerns the connection as a whole
// (overloaded, shutting-down, protocol violations).
//
// RetryAfterMillis is a backpressure hint on CodeOverloaded and
// CodeShuttingDown errors: how long the peer suggests waiting before
// trying again. Zero means no hint and is omitted from the wire. A
// probe of this version sends none; the field stays so that clients
// honour the hints of older probes and of the fleet's scripted
// overload answers.
type ErrorMsg struct {
	ID               uint64    `json:"id"`
	Code             ErrorCode `json:"code"`
	Message          string    `json:"message,omitempty"`
	RetryAfterMillis int64     `json:"retry_after_ms,omitempty"`
}

// Ping is a client health check.
type Ping struct {
	ID uint64 `json:"id"`
}

// Pong answers a Ping; Stats carries the probe's counters as JSON.
type Pong struct {
	ID    uint64          `json:"id"`
	Stats json.RawMessage `json:"stats,omitempty"`
}

// ResponsePayload encodes the RESPONSE envelope {"id":id,"body":body}
// by hand. For a body that json.Marshal produced, which is compact and
// escaped, these are the bytes json.Marshal(&Response{ID: id, Body:
// body}) produces, without scanning the body again.
func ResponsePayload(id uint64, body []byte) []byte {
	p := make([]byte, 0, len(`{"id":,"body":}`)+20+len(body))
	p = append(p, `{"id":`...)
	p = strconv.AppendUint(p, id, 10)
	p = append(p, `,"body":`...)
	p = append(p, body...)
	return append(p, '}')
}

// SplitResponse is the inverse of ResponsePayload: it splits a RESPONSE
// payload of exactly the form {"id":N,"body":B} into N and B, where N
// has no sign, no leading zero and at most 19 digits, and B neither
// starts nor ends with whitespace. It does not validate B, so a caller
// may use the split only for a body it has seen decode before; any
// other payload, ok false included, goes through Decode.
func SplitResponse(payload []byte) (id uint64, body []byte, ok bool) {
	const head, sep = `{"id":`, `,"body":`
	if !bytes.HasPrefix(payload, []byte(head)) {
		return 0, nil, false
	}
	rest := payload[len(head):]
	n := 0
	for n < len(rest) && n < 20 && '0' <= rest[n] && rest[n] <= '9' {
		id = id*10 + uint64(rest[n]-'0')
		n++
	}
	if n == 0 || n > 19 || (n > 1 && rest[0] == '0') || !bytes.HasPrefix(rest[n:], []byte(sep)) {
		return 0, nil, false
	}
	body = rest[n+len(sep):]
	if len(body) < 2 || body[len(body)-1] != '}' {
		return 0, nil, false
	}
	body = body[:len(body)-1]
	if isSpace(body[0]) || isSpace(body[len(body)-1]) {
		return 0, nil, false
	}
	return id, body, true
}

// isSpace reports a byte JSON counts as whitespace.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// WriteFrame marshals v and writes one complete frame; a v of type
// []byte is a payload already encoded, such as ResponsePayload's, and
// goes out as it is. The header and payload go out in a single Write so
// a well-behaved transport emits them back-to-back.
func WriteFrame(w io.Writer, t FrameType, v any) error {
	payload, ok := v.([]byte)
	if !ok {
		var err error
		if payload, err = json.Marshal(v); err != nil {
			return fmt.Errorf("probenet: encoding %s payload: %w", t, err)
		}
	}
	if len(payload) > MaxFrame {
		return fmt.Errorf("probenet: %s payload %d bytes exceeds MaxFrame %d", t, len(payload), MaxFrame)
	}
	buf := make([]byte, headerSize+len(payload))
	buf[0], buf[1] = 'N', 'P'
	buf[2] = Version
	buf[3] = byte(t)
	binary.BigEndian.PutUint32(buf[4:8], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[8:12], crc32.ChecksumIEEE(payload))
	copy(buf[headerSize:], payload)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("probenet: writing %s frame: %w", t, err)
	}
	return nil
}

// ReadFrame reads and validates one frame. It returns io.EOF when the
// peer closed cleanly between frames, io.ErrUnexpectedEOF on mid-frame
// truncation, *VersionError on a version mismatch and *ProtocolError on
// any other malformed input (bad magic, unknown type, oversized length,
// checksum mismatch). The payload is fully read before returning.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if hdr[0] != 'N' || hdr[1] != 'P' {
		return 0, nil, &ProtocolError{Reason: "bad magic"}
	}
	if hdr[2] != Version {
		return 0, nil, &VersionError{Got: int(hdr[2]), Want: Version}
	}
	t := FrameType(hdr[3])
	if t < FrameHello || t > frameTypeMax {
		return 0, nil, &ProtocolError{Reason: fmt.Sprintf("unknown frame type %d", hdr[3])}
	}
	n := binary.BigEndian.Uint32(hdr[4:8])
	if n > MaxFrame {
		return 0, nil, &ProtocolError{Reason: fmt.Sprintf("frame length %d exceeds MaxFrame %d", n, MaxFrame)}
	}
	sum := binary.BigEndian.Uint32(hdr[8:12])
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, &ProtocolError{Reason: fmt.Sprintf("%s payload checksum mismatch", t)}
	}
	return t, payload, nil
}

// Decode unmarshals a frame payload, converting JSON failures into
// *ProtocolError so callers can classify them as transport corruption.
func Decode(t FrameType, payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return &ProtocolError{Reason: fmt.Sprintf("malformed %s payload: %v", t, err)}
	}
	return nil
}
