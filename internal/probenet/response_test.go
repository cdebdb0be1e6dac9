package probenet

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// TestSplitResponse: the split takes exactly the canonical envelope
// ResponsePayload writes and declines every other spelling, which then
// goes through Decode.
func TestSplitResponse(t *testing.T) {
	const body = `{"Bounds":[4,8]}`
	cases := []struct {
		payload string
		id      uint64
		ok      bool
	}{
		{`{"id":0,"body":` + body + `}`, 0, true},
		{`{"id":42,"body":` + body + `}`, 42, true},
		{`{"id":9999999999999999999,"body":` + body + `}`, 9999999999999999999, true},
		{`{"id":7,"body":5}`, 7, true},
		{`{"id":10000000000000000000,"body":` + body + `}`, 0, false}, // 20 digits
		{`{"id":18446744073709551616,"body":` + body + `}`, 0, false}, // 2^64
		{`{"id":07,"body":` + body + `}`, 0, false},
		{`{"id":-7,"body":` + body + `}`, 0, false},
		{`{"id":7.0,"body":` + body + `}`, 0, false},
		{`{"id":,"body":` + body + `}`, 0, false},
		{`{"id": 7,"body":` + body + `}`, 0, false},
		{`{"id":7, "body":` + body + `}`, 0, false},
		{`{"id":7,"body": ` + body + `}`, 0, false},
		{`{"id":7,"body":` + body + ` }`, 0, false},
		{`{"id":7,"body":` + body + "}\n", 0, false},
		{`{"body":` + body + `,"id":7}`, 0, false},
		{`{"id":7,"body":}`, 0, false},
		{`{"id":7,"body":` + body + `}x`, 0, false},
		{`{"id":7,"body":`, 0, false},
		{``, 0, false},
		// The split does not validate the body: this one is cut short.
		{`{"id":7,"body":{"Bounds":[4,8]}`, 7, true},
	}
	for _, tc := range cases {
		id, b, ok := SplitResponse([]byte(tc.payload))
		if ok != tc.ok || (ok && id != tc.id) {
			t.Errorf("SplitResponse(%s) = %d, %q, %v; want id %d, ok %v", tc.payload, id, b, ok, tc.id, tc.ok)
			continue
		}
		if ok {
			if got := string(ResponsePayload(id, b)); got != tc.payload {
				t.Errorf("ResponsePayload of the split %s = %s", tc.payload, got)
			}
		}
	}
}

// TestWriteFrameSendsEncodedPayload: a []byte goes out as the payload
// it is, so a RESPONSE framed from ResponsePayload is the frame of the
// marshalled envelope.
func TestWriteFrameSendsEncodedPayload(t *testing.T) {
	body, err := json.Marshal(struct {
		Bounds []int
		Source string
	}{[]int{4, 8}, "a<b\u2028"})
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := WriteFrame(&got, FrameResponse, ResponsePayload(3, body)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&want, FrameResponse, &Response{ID: 3, Body: json.RawMessage(body)}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("frame of the encoded payload\n got %q\nwant %q", got.Bytes(), want.Bytes())
	}
	if err := WriteFrame(&got, FrameResponse, make([]byte, MaxFrame+1)); err == nil {
		t.Error("an encoded payload past MaxFrame was written")
	}
}

// FuzzSplitResponse holds the split to Decode: whenever it succeeds on
// a body that is valid JSON, Decode reads the same ID and the same body
// bytes. On ResponsePayload's output it succeeds exactly when the ID
// has at most 19 digits and the body is non-empty and neither starts
// nor ends with whitespace, as every body json.Marshal writes does, and
// it returns the ID and body it was given.
func FuzzSplitResponse(f *testing.F) {
	f.Add([]byte(`{"id":1,"body":{"Bounds":[4,8]}}`), uint64(1), []byte(`{"Bounds":[4,8]}`))
	f.Add([]byte(`{"id":0,"body":null}`), uint64(0), []byte(`null`))
	f.Add([]byte(`{"id":01,"body":5}`), uint64(math.MaxUint64), []byte(`" "`))
	f.Add([]byte(`{"id":7,"body": 5}`), uint64(1e19), []byte(` 5`))
	f.Add([]byte(`{"id":7,"body":{"a":1},"x":2}`), uint64(1e19-1), []byte(`{"a":1},"x":2`))
	f.Add([]byte(`{"id":7,"body":"}"}`), uint64(7), []byte(`"}"`))
	f.Fuzz(func(t *testing.T, payload []byte, id uint64, body []byte) {
		if sid, sb, ok := SplitResponse(payload); ok && json.Valid(sb) {
			var resp Response
			if err := Decode(FrameResponse, payload, &resp); err != nil {
				t.Fatalf("split %s into %d and %s, but Decode fails: %v", payload, sid, sb, err)
			}
			if resp.ID != sid || !bytes.Equal(resp.Body, sb) {
				t.Fatalf("split %s into %d and %s; Decode reads %d and %s", payload, sid, sb, resp.ID, resp.Body)
			}
		}
		p := ResponsePayload(id, body)
		want := id < 1e19 && len(body) > 0 && !isSpace(body[0]) && !isSpace(body[len(body)-1])
		sid, sb, ok := SplitResponse(p)
		if ok != want || (ok && (sid != id || !bytes.Equal(sb, body))) {
			t.Fatalf("split of ResponsePayload(%d, %q) = %d, %q, %v; want ok %v", id, body, sid, sb, ok, want)
		}
	})
}
