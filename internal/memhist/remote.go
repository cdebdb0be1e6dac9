package memhist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"

	"numaperf/internal/exec"
	"numaperf/internal/perf"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

// This file implements the request side of the paper's Fig. 6
// remote–local architecture: server platforms do not always offer a
// rich graphical interface, so a headless probe runs next to the testee
// and transfers the measured data via TCP to the front-end application.
// The wire protocol lives in internal/probenet; the hardened server and
// client are in server.go and client.go.

// Sentinel errors let the probe map measurement failures onto the
// protocol's machine-readable error codes.
var (
	// ErrBadRequest marks requests that fail validation.
	ErrBadRequest = errors.New("bad request")
	// ErrUnknownWorkload marks workloads absent from the registry.
	ErrUnknownWorkload = errors.New("unknown workload")
	// ErrUnknownMachine marks unrecognised machine models.
	ErrUnknownMachine = errors.New("unknown machine")
)

// Request limits, enforced on both the client and the server so a
// malformed or hostile request cannot stall or exhaust the probe.
const (
	// MaxRequestThreads caps the requested thread count (the engine
	// further limits it to the machine's core count).
	MaxRequestThreads = 1024
	// MaxRequestBounds caps the histogram resolution.
	MaxRequestBounds = 256
	// MaxRequestReps caps the number of averaged cycled runs.
	MaxRequestReps = 10_000
)

// ProbeRequest asks the probe to measure one workload.
type ProbeRequest struct {
	// Workload is a registered workload name (workloads.Names()).
	Workload string `json:"workload"`
	// Machine is a predefined machine name (topology.MachineNames());
	// default "dl580".
	Machine string `json:"machine,omitempty"`
	// Threads for the engine; default 1.
	Threads int `json:"threads,omitempty"`
	// Bounds for the histogram; DefaultBounds when empty.
	Bounds []uint64 `json:"bounds,omitempty"`
	// SliceCycles for threshold cycling; 0 selects the 100 Hz default.
	SliceCycles uint64 `json:"slice_cycles,omitempty"`
	// Reps averages multiple cycled runs.
	Reps int `json:"reps,omitempty"`
	// Exact requests the ground-truth histogram instead of cycling.
	Exact bool `json:"exact,omitempty"`
	// Adaptive enables the adaptive dwell-repair cycler. Probes that
	// predate the field ignore it (unknown JSON fields are dropped), so
	// new clients stay compatible with old probes.
	Adaptive bool `json:"adaptive,omitempty"`
	// Seed for the engine's noise model.
	Seed int64 `json:"seed,omitempty"`
}

// Validate checks the request against the protocol limits: a workload
// name must be present, reps must be non-negative, bounds must be
// strictly increasing (and at least two when given), and the thread
// count must stay under MaxRequestThreads. Both the client (before
// dialling) and the server (on receipt) validate, so a bad request
// never costs a measurement slot or a retry loop.
func (r ProbeRequest) Validate() error {
	if r.Workload == "" {
		return fmt.Errorf("memhist: %w: workload name required", ErrBadRequest)
	}
	if r.Reps < 0 {
		return fmt.Errorf("memhist: %w: reps %d must be >= 0", ErrBadRequest, r.Reps)
	}
	if r.Reps > MaxRequestReps {
		return fmt.Errorf("memhist: %w: reps %d exceeds cap %d", ErrBadRequest, r.Reps, MaxRequestReps)
	}
	if r.Threads > MaxRequestThreads {
		return fmt.Errorf("memhist: %w: %d threads exceed cap %d", ErrBadRequest, r.Threads, MaxRequestThreads)
	}
	if len(r.Bounds) > MaxRequestBounds {
		return fmt.Errorf("memhist: %w: %d bounds exceed cap %d", ErrBadRequest, len(r.Bounds), MaxRequestBounds)
	}
	if len(r.Bounds) > 0 {
		if err := checkBounds(r.Bounds); err != nil {
			return fmt.Errorf("memhist: %w: %w", ErrBadRequest, err)
		}
	}
	return nil
}

// HandleRequest executes one probe request locally. The returned
// histogram is tagged Origin "local"; the remote client overwrites the
// tag so callers can always tell where their data came from.
func HandleRequest(req ProbeRequest) (*Histogram, error) {
	return HandleRequestWith(req, perf.SamplerOptions{})
}

// HandleRequestWith is HandleRequest with the given sampler options on
// the sampled path (an exact request takes no samples). Its Disruptor
// is how a scenario replays PMU weather on every serve of a cell.
//
// With zero sampler options a request is answered from the memo when
// an earlier one asked for the same measurement under any seed (see
// memo); any other options simulate on every call.
func HandleRequestWith(req ProbeRequest, sampler perf.SamplerOptions) (*Histogram, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	w, ok := workloads.ByName(req.Workload)
	if !ok {
		return nil, fmt.Errorf("memhist: %w %q (have %v)", ErrUnknownWorkload, req.Workload, workloads.Names())
	}
	machName := req.Machine
	if machName == "" {
		machName = "dl580"
	}
	threads := req.Threads
	if threads <= 0 {
		threads = 1
	}
	key := engineKey{machName, threads}
	mk, memoize := memoKeyOf(key, w, req, sampler)
	if memoize {
		if h := memo.get(mk); h != nil {
			return h, nil
		}
	}
	// Only a miss builds the machine. An unknown name always misses: a
	// failed request is never stored.
	mach, ok := topology.ByName(machName)
	if !ok {
		return nil, fmt.Errorf("memhist: %w %q", ErrUnknownMachine, machName)
	}
	e, err := takeEngine(key, mach, req.Seed)
	if err != nil {
		return nil, err
	}
	h, err := measureOn(e, w, req, sampler)
	if err != nil {
		return nil, err
	}
	pool, ok := enginePools.Load(key)
	if !ok {
		pool, _ = enginePools.LoadOrStore(key, new(sync.Pool))
	}
	pool.(*sync.Pool).Put(e)
	if memoize {
		memo.put(mk, h)
	}
	return h, nil
}

// measureOn measures w as req asks on e, a fresh or re-seeded engine.
func measureOn(e *exec.Engine, w workloads.Workload, req ProbeRequest, sampler perf.SamplerOptions) (h *Histogram, err error) {
	if req.Exact {
		h, err = Exact(e, w.Body(), req.Bounds, 1)
	} else {
		h, err = Collect(e, w.Body(), Options{
			Bounds:      req.Bounds,
			SliceCycles: req.SliceCycles,
			Reps:        req.Reps,
			Adaptive:    req.Adaptive,
			Sampler:     sampler,
		})
	}
	if err != nil {
		return nil, err
	}
	h.Source = w.Name()
	h.Origin = OriginLocal
	return h, nil
}

// A probe serves streams of small cells, and a fresh engine's first
// load allocates and zeroes a whole L3, many times what a small cell
// touches. So HandleRequestWith keeps its idle engines, one sync.Pool
// per engineKey, and re-seeds one per request: a re-seeded engine
// measures exactly as a fresh one does. An engine goes back only after
// a measurement returned nil, so a failed or panicking run never leaves
// a busy engine behind. sync.Pool drops idle engines over two garbage
// collections, so an idle probe holds none for long. Campaign cells,
// evsel sweeps and training runs keep fresh engines (DESIGN.md says
// why).
var enginePools sync.Map // engineKey → *sync.Pool

// engineKey holds the only engine settings a ProbeRequest varies.
type engineKey struct {
	machine string
	threads int
}

// takeEngine returns an idle engine for key re-seeded to seed, or a new
// one. It creates no pool (HandleRequestWith does, on the way back), so
// a request that fails to build an engine (more threads than the
// machine has cores) leaves no entry behind.
func takeEngine(key engineKey, mach *topology.Machine, seed int64) (*exec.Engine, error) {
	if p, ok := enginePools.Load(key); ok {
		if e, ok := p.(*sync.Pool).Get().(*exec.Engine); ok {
			e.Reseed(seed)
			return e, nil
		}
	}
	return exec.NewEngine(exec.Config{Machine: mach, Threads: key.threads, Seed: seed})
}

// A fleet campaign's cells, and a probe's repeated requests, differ
// only in their seeds, and a histogram does not depend on the seed: it
// is built from load latencies and simulated cycles alone, the exact
// fields of a run that exec.Engine.Repeat documents as seed-free, and
// a lossless sampler adds nothing random. So HandleRequestWith keeps
// the histograms it measured with zero sampler options in a memo keyed
// on everything else a measurement reads, and answers a repeated
// request with a deep copy of the stored histogram, taking no engine.
// The key holds the workload value ByName returned rather than its
// name, so re-registering a name never serves the old workload's
// histogram; a value that cannot be compared (a func or slice field)
// skips the memo. Only a successful measurement is stored. The memo
// holds at most memoBound histograms and empties when it is full.
var memo = histMemo{entries: make(map[memoKey]*Histogram)}

// memoBound caps the histograms the memo holds. A fleet campaign needs
// one entry; a probe serving many kinds of request keeps the newest.
const memoBound = 64

// memoKey is every input a measurement reads except the seed, with the
// defaults HandleRequestWith applies (engineKey's machine and threads,
// reps ≤ 0 as 1). nil Bounds select DefaultBounds while empty ones
// fail, so the two never share an entry.
type memoKey struct {
	engineKey
	workload  workloads.Workload
	reps      int
	slice     uint64
	exact     bool
	adaptive  bool
	nilBounds bool
	bounds    string // the edges, 8 little-endian bytes each
}

// memoKeyOf builds req's memo key, or reports that req bypasses the
// memo: it samples with non-zero options, or its workload value cannot
// be a map key.
func memoKeyOf(key engineKey, w workloads.Workload, req ProbeRequest, sampler perf.SamplerOptions) (memoKey, bool) {
	if sampler != (perf.SamplerOptions{}) || !reflect.ValueOf(w).Comparable() {
		return memoKey{}, false
	}
	reps := req.Reps
	if reps <= 0 {
		reps = 1
	}
	var bounds []byte
	if len(req.Bounds) > 0 {
		bounds = make([]byte, 0, 8*len(req.Bounds))
		for _, b := range req.Bounds {
			bounds = binary.LittleEndian.AppendUint64(bounds, b)
		}
	}
	return memoKey{
		engineKey: key,
		workload:  w,
		reps:      reps,
		slice:     req.SliceCycles,
		exact:     req.Exact,
		adaptive:  req.Adaptive,
		nilBounds: req.Bounds == nil,
		bounds:    string(bounds),
	}, true
}

// histMemo is the memo's store. Stored histograms are never handed out
// or changed: get and put copy.
type histMemo struct {
	mu      sync.Mutex
	entries map[memoKey]*Histogram
}

// get returns a copy of the histogram stored under k, or nil.
func (m *histMemo) get(k memoKey) *Histogram {
	m.mu.Lock()
	h := m.entries[k]
	m.mu.Unlock()
	if h == nil {
		return nil
	}
	return h.clone()
}

// put stores a copy of h under k, first emptying a full memo.
func (m *histMemo) put(k memoKey, h *Histogram) {
	c := h.clone()
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[k]; !ok && len(m.entries) >= memoBound {
		clear(m.entries)
	}
	m.entries[k] = c
}
