package main

// Workload "serve": dbrewd as a long-lived daemon. An in-process service
// (with the fastpath deadline threshold cmd/dbrewd uses by default) sits
// behind a loopback HTTP server; two client goroutines, each with its own
// service.Client and delta snapshots on, run a closed loop over a seeded
// request sequence. Keys are seeded random stencils in flat and sorted
// layout, specialized on the call-based line kernels. Most keys use the
// llvm backend; seeded shares use the dbrew backend or carry a deadline
// below the fastpath threshold. Key popularity is Zipf-skewed, so most
// requests hit the memory cache and the first request of every key
// compiles.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/emu"
	"repro/internal/kernels"
	"repro/internal/service"
	"repro/internal/stencil"
)

// The new-key share, the variant shares, the skew and the tight deadline
// below are assumptions, not figures taken from dbrewd traffic: no such
// record exists. They decide serve's compile/hit balance and so its
// ops_per_s, latency_ms_p50 and latency_ms_p75, codecache.hit_ratio and
// the share of fastpath compiles; README.md says so too.
const (
	// serveStencilsPerSecond sets the number of seeded stencils per second
	// of --seconds. Each is served in both layouts and under three
	// variants, so the key space outgrows the keys a run introduces.
	serveStencilsPerSecond = 15
	// serveRequestsPerSecond sizes a run (a fixed count per --seconds).
	serveRequestsPerSecond = 950
	// serveNewKeyShare is the share of requests that introduce a key never
	// requested before: the steady share that compiles.
	serveNewKeyShare = 0.05
	// serveZipf is the skew of the popularity of the keys already
	// introduced: the earliest are the hottest.
	serveZipf = 1.1
	// serveFastpathThreshold is cmd/dbrewd's default -fastpath-deadline.
	serveFastpathThreshold = 250 * time.Millisecond
	// serveTightDeadlineMS is the deadline of the fastpath keys: below the
	// threshold, with room to spare for queueing behind compiles.
	serveTightDeadlineMS = 240
	// serveClients is the closed loop's client count.
	serveClients = 2
)

// serveVariants are the ways a key is requested, with the share of new
// keys each takes: most use the llvm backend with the default deadline,
// seeded shares the dbrew backend or a deadline below the fastpath
// threshold.
var serveVariants = []struct {
	name  string
	share float64
}{{"llvm", 0.55}, {"dbrew", 0.15}, {"fastpath", 0.30}}

type serveKey struct {
	name  string
	st    stencil.Stencil
	req   *service.Request
	sAddr uint64
}

type serveEnv struct {
	mem    *emu.Memory // the client's address space
	m1, m2 *stencil.Matrix
	ref    []float64
	keys   []*serveKey
	seq    []int // key index per request
	rows   []int // per key: the row its code is checked on
	svc    *service.Service
	ts     *httptest.Server

	mu      sync.Mutex
	first   map[int]*service.Response // per key: the first response
	sources map[string]int
}

// randomStencil draws taps distinct cells within radius 1 and gives them
// coefficients from a fixed cycle (0.25, 0.125, 0.5) in seeded order. The
// tap count and the coefficient groups of the sorted layout are fixed by
// taps, so the work a stencil costs does not depend on the seed; the seed
// moves the taps and which tap gets which coefficient.
func randomStencil(rng *rand.Rand, taps int) stencil.Stencil {
	coeffs := []float64{0.25, 0.125, 0.5}
	var cells [][2]int32
	for dy := int32(-1); dy <= 1; dy++ {
		for dx := int32(-1); dx <= 1; dx++ {
			cells = append(cells, [2]int32{dx, dy})
		}
	}
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	f := make([]float64, taps)
	for i := range f {
		f[i] = coeffs[i%len(coeffs)]
	}
	rng.Shuffle(len(f), func(i, j int) { f[i], f[j] = f[j], f[i] })
	st := stencil.Stencil{}
	for i, c := range cells[:taps] {
		st.Points = append(st.Points, stencil.Point{DX: c[0], DY: c[1], F: f[i]})
	}
	return st
}

// buildImage maps the kernel corpus and two 649×649 matrices, the input
// with a seeded interior, into mem.
func buildImage(mem *emu.Memory, rng *rand.Rand) (*kernels.Corpus, *stencil.Matrix, *stencil.Matrix, error) {
	c, err := kernels.Build(mem, paperSZ)
	if err != nil {
		return nil, nil, nil, err
	}
	m1 := stencil.NewMatrix(mem, paperSZ, "m1")
	m2 := stencil.NewMatrix(mem, paperSZ, "m2")
	m1.InitBoundary()
	m2.InitBoundary()
	for r := 1; r < paperSZ-1; r++ {
		for col := 1; col < paperSZ-1; col++ {
			m1.Set(r, col, rng.Float64())
		}
	}
	return c, m1, m2, nil
}

func setupServe(seed int64, seconds int) (env, error) {
	rng := rand.New(rand.NewSource(seed))
	mem := emu.NewMemory(0x10000000)
	c, m1, m2, err := buildImage(mem, rng)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{mem: mem, m1: m1, m2: m2, ref: m1.Slice(),
		first: make(map[int]*service.Response), sources: make(map[string]int)}

	type target struct {
		st    stencil.Stencil
		name  string
		entry uint64
		addr  uint64
		size  int
	}
	var targets []target
	for i := 0; i < seconds*serveStencilsPerSecond; i++ {
		st := randomStencil(rng, 1+i%9)
		flatAddr, flatSize, err := st.SerializeFlat(mem)
		if err != nil {
			return nil, err
		}
		sortedAddr, _, sortedSize, err := st.SerializeSorted(mem)
		if err != nil {
			return nil, err
		}
		targets = append(targets,
			target{st, fmt.Sprintf("%d/flat", i), c.FlatLineCall, flatAddr, flatSize},
			target{st, fmt.Sprintf("%d/sorted", i), c.SortedLineCall, sortedAddr, sortedSize})
	}
	// Every request ships the client's image without the matrices (which
	// no specialization reads) — the kernel code and every stencil, as
	// service.SnapshotRegions builds it.
	var image []service.Region
	for _, rg := range service.SnapshotRegions(mem) {
		if rg.Addr != m1.Region.Start && rg.Addr != m2.Region.Start {
			image = append(image, rg)
		}
	}
	sig := service.SigFromABI(kernels.LineSig)
	newKey := func(t target, variant string) *serveKey {
		req := &service.Request{
			Regions:     image,
			Entry:       t.entry,
			Sig:         sig,
			FixedParams: []service.ParamFix{{Idx: 0, Value: t.addr, Ptr: true, Size: t.size}},
		}
		switch variant {
		case "dbrew":
			req.Backend = "dbrew"
		case "fastpath":
			req.DeadlineMS = serveTightDeadlineMS
		}
		return &serveKey{name: t.name + "/" + variant, st: t.st, req: req, sAddr: t.addr}
	}

	// The request sequence: a fixed share of requests, at seeded positions
	// (the first among them), introduces a new key: the next unused target
	// of a variant, the variants in exact proportion to their shares. The
	// rest repeat a key already introduced, Zipf-skewed towards the
	// earliest.
	n := seconds * serveRequestsPerSecond
	isNew := make([]bool, n)
	isNew[0] = true
	fresh := int(math.Round(serveNewKeyShare * float64(n)))
	for _, p := range rng.Perm(n - 1)[:fresh-1] {
		isNew[p+1] = true
	}
	var variants []int
	for v, sv := range serveVariants {
		k := int(math.Round(sv.share * float64(fresh)))
		if k > len(targets) {
			return nil, fmt.Errorf("--seconds %d needs %d %s keys; the image has %d targets", seconds, k, sv.name, len(targets))
		}
		for j := 0; j < k; j++ {
			variants = append(variants, v)
		}
	}
	rng.Shuffle(len(variants), func(i, j int) { variants[i], variants[j] = variants[j], variants[i] })
	pools := make([][]int, len(serveVariants))
	for v := range pools {
		pools[v] = stratified(rng, len(targets), 2*9)
	}
	z := rand.NewZipf(rng, serveZipf, 1, uint64(fresh))
	for i := 0; i < n; i++ {
		if isNew[i] {
			v := variants[len(e.keys)%len(variants)]
			e.keys = append(e.keys, newKey(targets[pools[v][0]], serveVariants[v].name))
			e.rows = append(e.rows, 1+rng.Intn(paperSZ-2))
			pools[v] = pools[v][1:]
			e.seq = append(e.seq, len(e.keys)-1)
			continue
		}
		k := z.Uint64()
		for k >= uint64(len(e.keys)) {
			k = z.Uint64()
		}
		e.seq = append(e.seq, int(k))
	}

	e.svc = service.New(service.Config{FastpathDeadline: serveFastpathThreshold})
	e.ts = httptest.NewServer(e.svc)
	return e, nil
}

// stratified returns a seeded order of 0..n-1 in which every prefix holds
// the strata (index mod strata: here tap count × layout) in nearly equal
// numbers, so the keys a run introduces have the same make-up whatever the
// seed.
func stratified(rng *rand.Rand, n, strata int) []int {
	groups := make([][]int, strata)
	for i := 0; i < n; i++ {
		groups[i%strata] = append(groups[i%strata], i)
	}
	for _, g := range groups {
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	}
	var out []int
	for k := 0; len(out) < n; k++ {
		for _, g := range groups {
			if k < len(g) {
				out = append(out, g[k])
			}
		}
	}
	return out
}

func (e *serveEnv) close() {
	e.ts.Close()
	_ = e.svc.Shutdown(context.Background()) // nothing is in flight after ts.Close
}

// countingTransport records the body size of the requests a traced
// client sends (delta uploads are smaller than the plain request).
type countingTransport struct{ bytes atomic.Int64 }

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.bytes.Add(req.ContentLength)
	return http.DefaultTransport.RoundTrip(req)
}

func (e *serveEnv) run(r *runner) {
	ts := emu.ReadTraceStats()
	ctx := context.Background()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		client := service.NewClient(e.ts.URL)
		client.EnableDeltaSnapshots()
		var ct *countingTransport
		if r.tr != nil {
			ct = &countingTransport{}
			client.HTTPClient = &http.Client{Transport: ct}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(e.seq) {
					return
				}
				k := e.seq[i]
				key := e.keys[k]
				id := r.tr.begin("service.Client.Specialize", i, -1)
				var resp *service.Response
				var err error
				var sent int64
				start := time.Now()
				if r.tr == nil {
					resp, err = client.Specialize(ctx, key.req)
				} else {
					before := ct.bytes.Load()
					resp, err = client.SpecializeTraced(ctx, key.req)
					sent = ct.bytes.Load() - before
				}
				d := time.Since(start)
				if err != nil {
					r.tr.end(id)
					r.op("error", d, err)
					continue
				}
				r.tr.end(id, "handler_us", resp.ElapsedUS, "request_bytes", sent)
				if pt, ok := parseTrace(r.tr, resp.Trace); ok {
					r.tr.addTrace(pt, id, i)
				}
				r.op(resp.Source+"/"+resp.Strategy, d, nil)
				e.mu.Lock()
				e.sources[resp.Source]++
				first, seen := e.first[k]
				if !seen {
					e.first[k] = resp
				}
				e.mu.Unlock()
				if seen {
					r.check(checkSameResponse(key.name, first, resp))
				}
			}
		}()
	}
	wg.Wait()
	traceCounters(r, ts)
}

// finish checks the daemon's compile counter, then runs every distinct
// returned code object once over its key's row and checks it against the
// reference; the same runs give code_cycles.
func (e *serveEnv) finish(r *runner) {
	eng := e.svc.Engine()
	r.check(checkCompileCount(eng.CompileCount(), e.sources))
	if st, ok := eng.CacheStats(); ok {
		if n := st.Hits + st.Misses; n > 0 {
			r.counters["codecache.hit_ratio"] = float64(st.Hits) / float64(n)
		}
		r.counters["codecache.coalesced"] = float64(st.Waits)
	}
	r.counters["service.delta_misses"] = float64(e.svc.MetricsSnapshot().DeltaMisses)
	memCounters(r, eng.Mem)
	// The daemon's address space is not safe for allocation next to its
	// compiles, so its allocation cost is probed here, once the clients
	// are done, at its final region count.
	for i := 0; r.tr != nil && i < 20; i++ {
		allocProbe(r, -1, -1, eng.Mem)
	}

	for _, k := range sortedInts(e.first) {
		resp, key := e.first[k], e.keys[k]
		region := e.mem.Alloc(len(resp.Code), 16, "perfbench.served")
		copy(region.Data, resp.Code)
		row := e.rows[k]
		for c := 1; c < paperSZ-1; c++ {
			e.m2.Set(row, c, math.NaN())
		}
		idx0 := row*paperSZ + 1
		id := r.tr.begin("emu.Machine.Call", -1, -1)
		m := emu.NewMachine(e.mem)
		_, err := m.Call(region.Start, emu.CallArgs{Ints: []uint64{key.sAddr, e.m1.Region.Start, e.m2.Region.Start,
			uint64(idx0), uint64(paperSZ - 2)}}, emuBudget)
		r.tr.end(id, "insts", m.InstCount)
		if err != nil {
			r.check(fmt.Errorf("key %s: running the served code: %w", key.name, err))
			continue
		}
		r.check(checkElements("key "+key.name, key.st, e.ref, paperSZ, idx0, paperSZ-2,
			func(idx int) float64 { return e.m2.Get(idx/paperSZ, idx%paperSZ) }))
		r.code(m.Cycles/float64(paperSZ-2), len(resp.Code))
		if r.tr != nil {
			r.check(decodeSpan(r, -1, -1, e.mem, region.Start, len(resp.Code)))
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve: %d distinct keys served, sources %v, %d engine compiles\n",
		len(e.first), e.sources, eng.CompileCount())
}

func sortedInts[V any](m map[int]V) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
