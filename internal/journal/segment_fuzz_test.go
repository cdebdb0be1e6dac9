// Fuzz target for segmented-journal recovery. LoadSegmented walks a
// directory of crash debris — segment 0 at base, numbered segments,
// casualties — and on arbitrary file contents must never panic, fail
// only with the journal's typed errors, and hand back a state that the
// rest of the package agrees with: Verify classifies its root clean or
// torn-tail, Repair and Compact both preserve its records, and
// OpenSegmented can continue it.
package journal

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func fuzzFrame(payload string) []byte { return Frame([]byte(payload)) }

func FuzzLoadSegmented(f *testing.F) {
	header := `{"kind":"header","v":3,"name":"t"}`
	rec := `{"kind":"rec","n":0}`
	ckpt := `{"kind":"checkpoint","records":[{"kind":"rec","n":0},{"kind":"rec","n":1}]}`
	valid := append(fuzzFrame(header), fuzzFrame(ckpt)...)
	valid = append(valid, fuzzFrame(rec)...)

	// (legacy, seg1, seg2) triples covering the recovery matrix.
	f.Add([]byte{}, []byte{}, []byte{})
	f.Add(append(fuzzFrame(header), fuzzFrame(rec)...), []byte{}, []byte{})          // legacy only
	f.Add([]byte{}, append(fuzzFrame(header), fuzzFrame(rec)...), []byte{})          // eligible-root seg1
	f.Add([]byte{}, valid, []byte{})                                                 // checkpointed seg1
	f.Add([]byte{}, valid, fuzzFrame(header))                                        // seg2 casualty
	f.Add([]byte{}, valid, valid[:len(valid)-4])                                     // torn seg2 tail
	f.Add([]byte{}, valid, append(fuzzFrame(header), fuzzFrame(ckpt)[:20]...))       // torn checkpoint
	f.Add(append(fuzzFrame(header), fuzzFrame(rec)...), fuzzFrame(header), []byte{}) // migration crash
	f.Add([]byte("deadbeef not json\n"), []byte{}, []byte{})
	f.Add([]byte{}, []byte("garbage"), []byte("more garbage"))
	// Casualty at the next index: Compact rebuilds it in place and must
	// not delete its own output.
	f.Add([]byte{}, append(fuzzFrame(header), fuzzFrame(rec)...), append(fuzzFrame(header), fuzzFrame(ckpt)[:20]...))

	f.Fuzz(func(t *testing.T, legacy, seg1, seg2 []byte) {
		// Two identical copies: Repair runs on one, Compact on the other.
		plant := func() string {
			base := filepath.Join(t.TempDir(), "j")
			for i, raw := range [][]byte{legacy, seg1, seg2} {
				if len(raw) > 0 {
					if err := os.WriteFile(segmentPath(base, i), raw, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			return base
		}
		base, base2 := plant(), plant()

		st, err := LoadSegmented(OSFS, base, 3)
		if err != nil {
			var ce *CorruptError
			var ve *VersionError
			if !errors.As(err, &ce) && !errors.As(err, &ve) {
				t.Fatalf("untyped recovery error: %v", err)
			}
			return
		}
		if st == nil {
			return
		}
		if len(st.Header.Payload) == 0 {
			t.Fatal("recovered state without a header")
		}
		for _, r := range st.Records {
			if r.Kind == "checkpoint" {
				t.Fatal("checkpoint record leaked through expansion")
			}
		}

		// Verify judges the root by the same trust rule recovery used.
		vr, err := Verify(OSFS, base)
		if err != nil {
			t.Fatalf("verify after recovery: %v", err)
		}
		for _, fr := range vr.Files {
			if fr.Path == st.Path && fr.Verdict != VerdictClean && fr.Verdict != VerdictTornTail {
				t.Fatalf("recovery root %s verified %v (%s)", fr.Path, fr.Verdict, fr.Detail)
			}
		}
		if _, err := Repair(OSFS, base); err != nil {
			t.Fatalf("repair: %v", err)
		}
		sameRecords(t, "repair", st, base)
		if _, err := Compact(OSFS, base2, 3); err != nil {
			t.Fatalf("compact: %v", err)
		}
		st = sameRecords(t, "compact", st, base2)

		// Whatever was recovered must be continuable: open, append one
		// record, and reload to strictly more records.
		base = base2
		w, err := OpenSegmented(OSFS, base, st, SegmentedOptions{
			SegmentBytes: 256, Version: 3,
			Header: json.RawMessage(header),
		})
		if err != nil {
			t.Fatalf("recovered state not openable: %v", err)
		}
		if err := w.Append(json.RawMessage(`{"kind":"rec","n":99}`)); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		st2, err := LoadSegmented(OSFS, base, 3)
		if err != nil {
			t.Fatalf("reload after continue: %v", err)
		}
		if st2 == nil || len(st2.Records) != len(st.Records)+1 {
			t.Fatalf("continue lost records: %d -> %v", len(st.Records), st2)
		}
	})
}

// sameRecords reloads the journal at base and requires the records of
// want, compared as decoded JSON: a checkpoint re-encodes the payloads
// it bundles, which may respell them byte for byte.
func sameRecords(t *testing.T, after string, want *SegmentedState, base string) *SegmentedState {
	t.Helper()
	got, err := LoadSegmented(OSFS, base, 3)
	if err != nil || got == nil {
		t.Fatalf("reload after %s: (%v, %v)", after, got, err)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("%s changed the record count: %d -> %d", after, len(want.Records), len(got.Records))
	}
	for i := range got.Records {
		var a, b any
		if json.Unmarshal(want.Records[i].Payload, &a) != nil || json.Unmarshal(got.Records[i].Payload, &b) != nil ||
			!reflect.DeepEqual(a, b) {
			t.Fatalf("%s changed record %d: %s -> %s", after, i, want.Records[i].Payload, got.Records[i].Payload)
		}
	}
	return got
}
