package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"numaperf/internal/journal"
	"numaperf/internal/memhist"
	"numaperf/internal/probenet"
)

// TestCellRecordJSONMatchesMarshal: the record commit splices around a
// body's journal form is the record json.Marshal writes for the body,
// whether the body is compact or not, and whatever it holds that
// json.Marshal escapes.
func TestCellRecordJSONMatchesMarshal(t *testing.T) {
	spec := testFleetSpec(1)
	compact := cellBody(t, spec, 0)
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, compact, " ", "\t"); err != nil {
		t.Fatal(err)
	}
	// A foreign probe may write the raw characters json.Marshal escapes.
	html := bytes.Replace(compact, []byte(`"Source":"fleet-pkg-tiny"`), []byte(`"Source":"<a&b>"`), 1)
	sep := bytes.Replace(compact, []byte(`"Source":"fleet-pkg-tiny"`), []byte("\"Source\":\"a\u2028b\u2029\""), 1)
	if bytes.Equal(html, compact) || bytes.Equal(sep, compact) {
		t.Fatal("the body has no Source to replace")
	}
	for _, body := range [][]byte{compact, spaced.Bytes(), html, sep} {
		form, err := json.Marshal(json.RawMessage(body))
		if err != nil {
			t.Fatal(err)
		}
		for _, probe := range []string{"p1", "<p&1> "} {
			want, err := json.Marshal(&fleetCellRecord{Kind: "cell", Cell: 37, Probe: probe, Hist: body})
			if err != nil {
				t.Fatal(err)
			}
			if got := cellRecordJSON(37, probe, form); !bytes.Equal(got, want) {
				t.Errorf("spliced record\n got %s\nwant %s", got, want)
			}
		}
	}
}

// rawProbe registers a raw connection with the coordinator at addr as
// probe id, instance inst, and returns it once acknowledged.
func rawProbe(t *testing.T, addr, id string, inst uint64) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := probenet.WriteFrame(conn, probenet.FrameHello, &probenet.Hello{
		Version: probenet.Version, ProbeID: id, Instance: inst,
	}); err != nil {
		t.Fatal(err)
	}
	if ft, payload, err := probenet.ReadFrame(conn); err != nil || ft != probenet.FrameHello {
		t.Fatalf("registration: %s %s %v", ft, payload, err)
	}
	return conn
}

// fullDecode is the reader's path for every RESPONSE before answers
// were remembered: decode the envelope (a failure drops the link), then
// the histogram (a failure strikes the probe), else deliver the
// histogram with its body's journal form.
func fullDecode(payload []byte) (verdict string, hist, form []byte) {
	var resp probenet.Response
	if probenet.Decode(probenet.FrameResponse, payload, &resp) != nil {
		return "dropped", nil, nil
	}
	h, err := memhist.DecodeHistogram(resp.Body)
	if err != nil {
		return "struck", nil, nil
	}
	hist, _ = json.Marshal(h)
	form, _ = json.Marshal(resp.Body)
	return "delivered", hist, form
}

// TestReaderClassifiesLikeFullDecode feeds a coordinator raw RESPONSE
// frames on a scripted link. Each must end as fullDecode says: the
// cell's histogram and journal form delivered, a malformed histogram
// struck, or the link dropped. A canonical repeat of the link's last
// answer must be that answer, shared; a malformed body is never
// remembered, so sending it twice strikes twice.
func TestReaderClassifiesLikeFullDecode(t *testing.T) {
	spec := testFleetSpec(1)
	a := cellBody(t, spec, 0)
	change := func(old, new string) []byte {
		b := bytes.Replace(a, []byte(old), []byte(new), 1)
		if bytes.Equal(b, a) || len(b) != len(a) {
			t.Fatalf("the body has no %s to change", old)
		}
		return b
	}
	renamed := change(`"Source":"fleet-pkg-tiny"`, `"Source":"fleet-pkg-tinx"`)
	unordered := change(`256,512]`, `256,212]`)
	broken := change(`{"Bounds"`, `["Bounds"`)
	// A foreign probe may indent its body or leave characters raw that
	// json.Marshal escapes; the journal form must be json.Marshal's.
	var indented bytes.Buffer
	if err := json.Indent(&indented, a, "", "  "); err != nil {
		t.Fatal(err)
	}
	raw := bytes.Replace(a, []byte(`"Source":"fleet-pkg-tiny"`), []byte("\"Source\":\"<a&b>\u2028\""), 1)
	canonical := func(body []byte) func(uint64) []byte {
		return func(id uint64) []byte { return probenet.ResponsePayload(id, body) }
	}
	spell := func(format string) func(uint64) []byte {
		return func(id uint64) []byte { return []byte(fmt.Sprintf(format, id, a)) }
	}
	steps := []struct {
		name    string
		payload func(id uint64) []byte
		shared  int // step whose answer a canonical repeat shares, or -1
	}{
		{"first answer", canonical(a), -1},
		{"canonical repeat", canonical(a), 0},
		{"source byte changed", canonical(renamed), -1},
		{"bound byte changed", canonical(unordered), -1},
		{"structural byte changed", canonical(broken), -1},
		{"answer again", canonical(a), -1},
		{"whitespace in the envelope", spell(`{"id": %d, "body": %s}`), -1},
		{"canonical after a spelled answer", canonical(a), 6},
		{"leading-zero id", spell(`{"id":0%d,"body":%s}`), -1},
		{"id 2^64", func(uint64) []byte { return []byte(fmt.Sprintf(`{"id":18446744073709551616,"body":%s}`, a)) }, -1},
		{"reordered keys", func(id uint64) []byte { return []byte(fmt.Sprintf(`{"body":%s,"id":%d}`, a, id)) }, -1},
		{"trailing byte", spell(`{"id":%d,"body":%s}x`), -1},
		{"trailing brace", spell(`{"id":%d,"body":%s}}`), -1},
		{"trailing space", spell(`{"id":%d,"body":%s} `), -1},
		{"repeat after a spelled answer", canonical(a), 13},
		{"malformed histogram", canonical(unordered), -1},
		{"malformed histogram again", canonical(unordered), -1},
		{"repeat after malformed ones", canonical(a), 14},
		{"indented body", canonical(indented.Bytes()), -1},
		{"indented repeat", canonical(indented.Bytes()), 18},
		{"unescaped body", canonical(raw), -1},
	}

	c, addr := startTestCoordinator(t, Options{ProbeStrikes: -1})
	results := make(chan outcome, 1)
	inst := uint64(1)
	conn := rawProbe(t, addr, "raw", inst)
	answers := make([]*answer, len(steps))
	for i, st := range steps {
		id := uint64(100 + i)
		c.pendMu.Lock()
		c.pending[id] = &pendEntry{probe: "raw", instance: inst, ch: results}
		c.pendMu.Unlock()
		payload := st.payload(id)
		if err := probenet.WriteFrame(conn, probenet.FrameResponse, payload); err != nil {
			t.Fatal(err)
		}
		var o outcome
		select {
		case o = <-results:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no outcome", st.name)
		}
		verdict, hist := "delivered", []byte(nil)
		switch {
		case o.err != nil:
			verdict = "dropped"
		case o.histErr != nil:
			verdict = "struck"
		default:
			hist, _ = json.Marshal(o.ans.hist)
		}
		want, wantHist, wantForm := fullDecode(payload)
		if verdict != want {
			t.Fatalf("%s: %s, want %s (%s)", st.name, verdict, want, payload)
		}
		if verdict == "dropped" {
			// The coordinator closed the link; register a new life.
			c.cancelPending(id)
			inst++
			conn = rawProbe(t, addr, "raw", inst)
			continue
		}
		if o.reqID != id {
			t.Errorf("%s: outcome for request %d, want %d", st.name, o.reqID, id)
		}
		if verdict == "struck" {
			continue
		}
		answers[i] = o.ans
		if !bytes.Equal(hist, wantHist) || !bytes.Equal(o.ans.journal, wantForm) {
			t.Errorf("%s: delivered\n%s\n%s\nwant\n%s\n%s", st.name, hist, o.ans.journal, wantHist, wantForm)
		}
		if st.shared >= 0 && o.ans != answers[st.shared] {
			t.Errorf("%s: a canonical repeat decoded again instead of sharing step %d's answer", st.name, st.shared)
		}
		if st.shared < 0 && i > 0 && o.ans == answers[i-1] {
			t.Errorf("%s: shares the previous answer", st.name)
		}
	}
}

// TestAlternatingAnswersKeepReportAndJournal: a probe whose answers
// alternate between two histograms (Origin "a" and "b") never answers
// with its link's last bytes, so every answer is decoded; the report
// and the journal must be what decoding every answer gives.
func TestAlternatingAnswersKeepReportAndJournal(t *testing.T) {
	spec := testFleetSpec(8)
	var mu sync.Mutex
	served := 0
	bodies := make(map[int64][]byte) // by seed
	handle := func(req memhist.ProbeRequest) (*memhist.Histogram, error) {
		h, err := memhist.HandleRequest(req)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		h.Origin = []string{"a", "b"}[served%2]
		served++
		bodies[req.Seed], err = json.Marshal(h)
		return h, err
	}
	path := filepath.Join(t.TempDir(), "fleet.journal")
	rep := runFleet(t, spec, Options{JournalPath: path}, handle, 1)

	header, _ := json.Marshal(fleetHeaderFor(spec))
	want := journal.Frame(header)
	var hs []*memhist.Histogram
	mu.Lock()
	for i := 0; i < spec.Cells; i++ {
		body := bodies[spec.CellRequest(i).Seed]
		if want := []string{"a", "b"}[i%2]; !bytes.Contains(body, []byte(`"Origin":"`+want+`"`)) {
			t.Fatalf("cell %d answered %s, want Origin %q", i, body, want)
		}
		h, err := memhist.DecodeHistogram(body)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
		rec, _ := json.Marshal(&fleetCellRecord{Kind: "cell", Cell: i, Probe: "p1", Hist: body})
		want = append(want, journal.Frame(rec)...)
	}
	mu.Unlock()
	merged, err := memhist.MergeHistograms(hs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, rep.Histogram), mustJSON(t, merged); !bytes.Equal(got, want) {
		t.Errorf("report\n%s\nwant\n%s", got, want)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Errorf("journal (%v)\n%s\nwant\n%s", err, got, want)
	}
}

// TestSharedAnswersCampaign: a 512-cell campaign on two probes whose
// cells all answer the same bytes, so each link's cells share one
// decoded histogram. Run under -race, it checks the campaign loop and
// the readers share answers safely; the report and the journal must be
// what decoding every answer gives.
func TestSharedAnswersCampaign(t *testing.T) {
	spec := testFleetSpec(512)
	path := filepath.Join(t.TempDir(), "fleet.journal")
	rep := runFleet(t, spec, Options{JournalPath: path}, nil, 2)
	bodies := make([][]byte, spec.Cells)
	hs := make([]*memhist.Histogram, spec.Cells)
	for i := range hs {
		bodies[i] = cellBody(t, spec, i)
		h, err := memhist.DecodeHistogram(bodies[i])
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}
	merged, err := memhist.MergeHistograms(hs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, rep.Histogram), mustJSON(t, merged); !bytes.Equal(got, want) {
		t.Errorf("report\n%s\nwant\n%s", got, want)
	}
	st, err := loadFleetJournal(journal.OSFS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.committed) != spec.Cells {
		t.Fatalf("journal holds %d cells, want %d", len(st.committed), spec.Cells)
	}
	for i, cm := range st.committed {
		if cm.cell == nil || !bytes.Equal(cm.cell.Hist, bodies[i]) || rep.ProbeCells[cm.cell.Probe] == 0 {
			t.Fatalf("journaled cell %d = %+v, want one of probes %v with body %s", i, cm.cell, rep.ProbeCells, bodies[i])
		}
	}
}

// runFleet runs spec on a fresh coordinator with as many agents as
// probes (p1, p2, …), each answering through handle, and returns the
// complete report.
func runFleet(t *testing.T, spec Spec, opts Options, handle func(memhist.ProbeRequest) (*memhist.Histogram, error), probes int) *Report {
	t.Helper()
	opts.SuspectAfter, opts.DeadAfter = 2*time.Second, 4*time.Second
	c, addr := startTestCoordinator(t, opts)
	ctx, cancel := context.WithCancel(context.Background())
	var agents sync.WaitGroup
	for i := 1; i <= probes; i++ {
		a := &ProbeAgent{ID: fmt.Sprintf("p%d", i), Coordinator: addr, HeartbeatInterval: 50 * time.Millisecond, Handle: handle}
		agents.Add(1)
		go func() {
			defer agents.Done()
			_ = a.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		agents.Wait()
	})
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := c.WaitForProbes(wctx, probes); err != nil {
		t.Fatal(err)
	}
	rctx, rcancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer rcancel()
	rep, err := c.RunCampaign(rctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() || rep.Redispatched != 0 {
		t.Fatalf("campaign: %s", rep.Summary())
	}
	return rep
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHeartbeatReportsInFlight: an agent's heartbeats carry in_flight 1
// while it serves a cell and omit the field when idle. The agent's
// Handle blocks until the stand-in coordinator has read such a beat.
func TestHeartbeatReportsInFlight(t *testing.T) {
	registerPkgTiny()
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	handle := func(req memhist.ProbeRequest) (*memhist.Histogram, error) {
		<-release
		return memhist.HandleRequest(req)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	a := &ProbeAgent{ID: "p1", Coordinator: ln.Addr().String(), HeartbeatInterval: 5 * time.Millisecond, Handle: handle}
	done := make(chan error, 1)
	go func() { done <- a.Run(ctx) }()
	defer func() {
		cancel()
		unblock()
		<-done
	}()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if ft, _, err := probenet.ReadFrame(conn); err != nil || ft != probenet.FrameHello {
		t.Fatalf("registration: %s %v", ft, err)
	}
	if err := probenet.WriteFrame(conn, probenet.FrameHello, &probenet.Hello{Version: probenet.Version}); err != nil {
		t.Fatal(err)
	}
	// next reads frames until a heartbeat or a RESPONSE.
	next := func() (probenet.FrameType, []byte, probenet.Heartbeat) {
		t.Helper()
		for {
			ft, payload, err := probenet.ReadFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			var hb probenet.Heartbeat
			switch ft {
			case probenet.FrameHeartbeat:
				if err := probenet.Decode(ft, payload, &hb); err != nil {
					t.Fatal(err)
				}
				return ft, payload, hb
			case probenet.FrameResponse:
				return ft, payload, hb
			}
		}
	}
	for i := 0; i < 2; i++ {
		if ft, payload, _ := next(); ft != probenet.FrameHeartbeat || bytes.Contains(payload, []byte("in_flight")) {
			t.Fatalf("idle agent sent %s %s", ft, payload)
		}
	}
	body, _ := json.Marshal(memhist.ProbeRequest{Workload: "fleet-pkg-tiny", Machine: "uma", Seed: 1})
	if err := probenet.WriteFrame(conn, probenet.FrameRequest, &probenet.Request{ID: 1, Body: body}); err != nil {
		t.Fatal(err)
	}
	for {
		ft, payload, hb := next()
		if ft != probenet.FrameHeartbeat {
			t.Fatalf("the agent answered %s before its Handle returned", payload)
		}
		if hb.InFlight == 1 {
			break
		}
		if hb.InFlight != 0 {
			t.Fatalf("heartbeat %s", payload)
		}
	}
	unblock()
	for {
		if ft, _, _ := next(); ft == probenet.FrameResponse {
			break
		}
	}
	for {
		_, payload, hb := next()
		if hb.InFlight > 1 {
			t.Fatalf("heartbeat %s", payload)
		}
		if !bytes.Contains(payload, []byte("in_flight")) {
			break
		}
	}
}
