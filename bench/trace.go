package main

import (
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"numaperf/internal/journal"
)

// span is one traced interval around a call the benchmark made into a
// layer's public function, or around a call a layer made into one of
// the benchmark's wrappers (a journal write, a probe's socket write).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none
	Name   string `json:"name"`
	Iter   int    `json:"iter"` // 0 is the warm-up; -1 is outside any iteration
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	// Chain marks spans opened on the main goroutine. They nest
	// strictly, so their self times add up to the iteration's wall time.
	// Spans opened on other goroutines (campaign workers, probe agents)
	// overlap each other and the chain; they are accounted separately.
	Chain bool `json:"chain"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing: untraced runs pass nil everywhere.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	stack []int // open chain spans, innermost last
	iter  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), iter: -1} }

// setIter tags the spans opened from now on with an iteration id.
func (t *tracer) setIter(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.iter = i
	t.mu.Unlock()
}

// begin opens a chain span under the innermost open one. Only the
// main goroutine calls it.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := t.add(span{Name: name, Parent: parent, Chain: true})
	t.stack = append(t.stack, id)
	return id
}

// open starts a span on a goroutine other than the main one.
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.add(span{Name: name, Parent: parent})
}

func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	s.Iter = t.iter
	s.Start = int64(time.Since(t.epoch))
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes a span opened by begin or open and records the bytes it
// moved. Chain spans must close innermost first.
func (t *tracer) end(id int, bytes int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.epoch))
	s.Bytes = bytes
	if s.Chain {
		n := len(t.stack)
		if n == 0 || t.stack[n-1] != id {
			panic("bench: chain span " + s.Name + " closed out of order")
		}
		t.stack = t.stack[:n-1]
	}
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON.
func (t *tracer) write(path string, header map[string]any) error {
	header["spans"] = t.snapshot()
	b, err := json.Marshal(header)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's duration minus the part of it that its
// children of the same kind (chain or not) cover, in nanoseconds. For a
// chain span that leaves out the work other goroutines did meanwhile:
// campaign.run's self time includes the committer's wait for cells.
func selfTimes(spans []span) []int64 {
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if p, ok := index[s.Parent]; ok && spans[p].Chain == s.Chain {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns how much of [lo, hi) the union of the intervals
// covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// busyFrac is the share of wall × workers that busy time filled.
func busyFrac(busy, wall float64, workers int) float64 {
	if wall <= 0 || workers <= 0 {
		return 0
	}
	return busy / (wall * float64(workers))
}

// timedFS is the journal filesystem of traced runs: a chain span around
// every write, fsync and directory fsync. The campaign committer and
// the fleet coordinator journal from the main goroutine.
type timedFS struct {
	journal.FS
	tr *tracer
}

func (f timedFS) OpenFile(path string, flag int, perm os.FileMode) (journal.File, error) {
	file, err := f.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return timedFile{file, f.tr}, nil
}

func (f timedFS) SyncDir(dir string) error {
	id := f.tr.begin("journal.syncdir")
	defer f.tr.end(id, 0)
	return f.FS.SyncDir(dir)
}

type timedFile struct {
	journal.File
	tr *tracer
}

func (f timedFile) Write(p []byte) (int, error) {
	id := f.tr.begin("journal.write")
	n, err := f.File.Write(p)
	f.tr.end(id, int64(n))
	return n, err
}

func (f timedFile) Sync() error {
	id := f.tr.begin("journal.sync")
	defer f.tr.end(id, 0)
	return f.File.Sync()
}

// countingConn is a probe agent's connection in traced runs: it counts
// the bytes the probe reads and records a span around every write.
type countingConn struct {
	net.Conn
	tr     *tracer
	parent *atomic.Int64 // the fleet.campaign span the writes serve
	in     *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	id := c.tr.open("probenet.write", int(c.parent.Load()))
	n, err := c.Conn.Write(p)
	c.tr.end(id, int64(n))
	return n, err
}
