// Fuzz targets for the campaign journal's wire format. On arbitrary
// bytes the parser must hold two properties: never panic, and fail only
// with the journal's typed errors — a damaged journal is diagnosed, not
// crashed on and never resumed from silently.
package campaign

import (
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"numaperf/internal/journal"
)

// frameLine builds one valid journal line for a payload.
func frameLine(payload string) string {
	return fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE([]byte(payload)), payload)
}

func FuzzParseJournal(f *testing.F) {
	header := `{"kind":"header","v":1,"param_name":"threads","params":[1,2],"events":["mem_load_retired_all"],"reps":2,"mode":"Batched","seed":7}`
	cell := `{"kind":"cell","key":"p0/r0/b0","samples":{"mem_load_retired_all":1024}}`
	gapl := `{"kind":"gap","key":"p0/r1/b0","error":"run timed out","events":["mem_load_retired_all"]}`
	f.Add([]byte{})
	f.Add([]byte(frameLine(header)))
	f.Add([]byte(frameLine(header) + frameLine(cell) + frameLine(gapl)))
	f.Add([]byte(frameLine(header) + frameLine(cell)[:25])) // torn tail
	f.Add([]byte(frameLine(cell)))                          // missing header
	f.Add([]byte(frameLine(header) + frameLine(`{"kind":"mystery"}`)))
	f.Add([]byte("deadbeef not json\n"))
	f.Add([]byte(frameLine(header) + strings.Repeat(frameLine(cell), 16)))
	// Segmented-journal vocabulary: a checkpoint record never reaches
	// this parser in production (LoadSegmented expands it first), so a
	// raw single file carrying one must diagnose as corrupt, typed.
	ckpt := `{"kind":"checkpoint","records":[` + cell + `,` + gapl + `]}`
	f.Add([]byte(frameLine(header) + frameLine(ckpt)))
	f.Add([]byte(frameLine(header) + frameLine(ckpt) + frameLine(cell)))
	f.Add([]byte(frameLine(header) + frameLine(ckpt)[:30])) // torn checkpoint
	f.Fuzz(func(t *testing.T, raw []byte) {
		st, err := parseJournal(raw)
		if err != nil {
			if !errors.Is(err, ErrJournalCorrupt) && !errors.Is(err, ErrJournalMismatch) {
				t.Fatalf("untyped journal error: %v", err)
			}
			return
		}
		if st == nil {
			if len(raw) != 0 {
				t.Fatalf("nil state accepted for %d non-empty bytes", len(raw))
			}
			return
		}
		if st.header == nil {
			t.Fatal("journal accepted without a header")
		}
		if st.header.Version != journalVersion {
			t.Fatalf("accepted journal version %d", st.header.Version)
		}
		if st.completed() != len(st.cells)+len(st.gaps) {
			t.Fatal("completed() disagrees with loaded records")
		}
	})
}

func FuzzParseLine(f *testing.F) {
	f.Add(strings.TrimSuffix(frameLine(`{"kind":"cell","key":"p0/r0/b0"}`), "\n"))
	f.Add("00000000 {}")
	f.Add("short")
	f.Add("zzzzzzzz {}")
	f.Add("deadbeef{}")
	f.Fuzz(func(t *testing.T, line string) {
		kind, payload, err := journal.ParseLine(line)
		if err != nil {
			return
		}
		// A line that verified must round-trip: re-framing the payload
		// yields a line ParseLine accepts with the same kind.
		again := strings.TrimSuffix(frameLine(string(payload)), "\n")
		k2, _, err2 := journal.ParseLine(again)
		if err2 != nil || k2 != kind {
			t.Fatalf("verified line does not round-trip: err %v, kind %q vs %q", err2, k2, kind)
		}
	})
}
