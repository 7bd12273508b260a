package sssp

import (
	"context"
	"math/bits"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// Parallel level-synchronous BFS. One traversal splits each frontier across
// a pool of workers: top-down levels carve the frontier into chunks claimed
// through an atomic cursor, with discoveries claimed by CAS on a shared
// visited bitmap and appended to per-worker next-queues the coordinator
// merges between levels; bottom-up levels partition the node range on
// 64-node word boundaries so every worker owns its bitmap words outright and
// needs no atomics at all. Level-synchrony makes the distances deterministic
// — a node is only ever claimed during the one level at which BFS first
// reaches it, so every interleaving writes the same value — which the
// differential fuzz in fuzz_test.go pins against the scalar kernels.
//
// The worker pool is package-level and persistent: dispatching a level sends
// pre-existing *parRun pointers over a channel, so a warmed traversal
// allocates nothing per call (TestParallelBFSZeroAllocs) no matter how many
// levels fan out. The coordinator always participates in its own run, so a
// traversal makes progress even when every pool worker is busy serving
// another traversal, and pool workers never block on anything but the task
// channel — there is no cross-run dependency that could deadlock.

// Tuning knobs for the parallel kernels. Chunks are the unit of work-stealing
// granularity; the serial cutoffs keep small frontiers on the plain scalar
// loops where atomics would only add overhead.
const (
	// parChunkTD is the top-down frontier chunk (nodes per cursor claim).
	parChunkTD = 128
	// parChunkBU is the bottom-up chunk in bitmap words (64 nodes each);
	// word granularity is what makes worker-owned plain writes safe.
	parChunkBU = 64
	// parSerialCutoff: frontiers smaller than this run the serial loop even
	// when parallelism is available.
	parSerialCutoff = 256
)

// parPhase selects what work() does for the current dispatch.
type parPhase int

const (
	parPhaseTopDown parPhase = iota
	parPhaseBottomUp
)

// parWorkerState is one worker's slice of a fork-join level: a private
// next-queue plus register-accumulated counters the coordinator sums after
// the barrier. Padded so adjacent workers don't false-share.
type parWorkerState struct {
	queue   []int32
	reached int64
	edges   int64
	mfNext  int64
	nfNext  int64
	_       [8]int64 // cache-line padding
}

// parRun is the reusable fork-join state of one traversal, embedded in its
// Scratch. The coordinator fills the shared inputs, dispatches, and reads
// the per-worker outputs after the barrier; workers claim a dense slot and
// chunk through the cursor.
type parRun struct {
	wg     sync.WaitGroup
	slots  atomic.Int32
	cursor atomic.Int64
	phase  parPhase
	k      int

	// Shared read-only inputs for the current phase.
	offsets   []int32
	neighbors []int32
	dist      []int32
	vis       []uint64
	q         []int32
	lo, hi    int
	level     int32
	n         int
	curBits   []uint64
	nxtBits   []uint64

	workers []parWorkerState
}

// ensureWorkers grows the per-worker state block to k workers whose queues
// can hold a full n-node frontier.
func (r *parRun) ensureWorkers(k, n int) {
	if cap(r.workers) < k {
		old := r.workers
		r.workers = make([]parWorkerState, k)
		copy(r.workers, old) // keep already-grown queues
	}
	r.workers = r.workers[:cap(r.workers)]
	for i := 0; i < k; i++ {
		if cap(r.workers[i].queue) < n {
			r.workers[i].queue = make([]int32, 0, n)
		}
	}
}

// dispatch runs the current phase on k participants: k-1 pool workers plus
// the coordinator itself. It is a full barrier — every chunk has been
// processed and every worker's outputs are visible when it returns.
//
//convlint:hotpath
func (r *parRun) dispatch(k int) {
	r.k = k
	r.cursor.Store(0)
	r.slots.Store(0)
	if k > 1 {
		r.wg.Add(k - 1)
		for i := 0; i < k-1; i++ {
			parTasks <- r
		}
	}
	r.work()
	if k > 1 {
		r.wg.Wait()
	}
}

// work claims a dense worker slot, resets its state, and chews chunks until
// the cursor runs dry.
//
//convlint:hotpath
func (r *parRun) work() {
	slot := int(r.slots.Add(1)) - 1
	ws := &r.workers[slot]
	ws.queue = ws.queue[:0]
	ws.reached, ws.edges, ws.mfNext, ws.nfNext = 0, 0, 0, 0
	if r.phase == parPhaseTopDown {
		r.topDownChunks(ws)
	} else {
		r.bottomUpChunks(ws)
	}
}

// Persistent traversal worker pool. Workers are spawned lazily up to
// maxTraversalWorkers-1 (the coordinator is always the missing participant)
// and then live for the life of the process, so steady-state dispatch is a
// channel send of an existing pointer — no goroutine spawns, no closures.
var (
	parTasks    = make(chan *parRun, maxTraversalWorkers)
	parPoolMu   sync.Mutex
	parPoolSize atomic.Int32
)

// ensureParPool makes sure at least k-1 pool workers exist.
func ensureParPool(k int) {
	need := int32(k - 1)
	if need <= 0 || parPoolSize.Load() >= need {
		return
	}
	parPoolMu.Lock()
	for parPoolSize.Load() < need {
		parPoolSize.Add(1)
		go parPoolWorker(parTasks)
	}
	parPoolMu.Unlock()
}

// parPoolWorker serves fork-join tasks until its channel closes, labeled so
// CPU profiles attribute intra-traversal parallelism to the sssp subsystem.
// The channel is bound at spawn time so a drain/respawn cycle can't hand a
// stale worker the replacement channel.
func parPoolWorker(tasks chan *parRun) {
	defer parPoolSize.Add(-1)
	pprof.Do(context.Background(), pprof.Labels("subsystem", "sssp-traversal", "role", "pool-worker"),
		func(context.Context) {
			for r := range tasks {
				r.work()
				r.wg.Done()
			}
		})
}

// drainParPool shuts down every pool worker and installs a fresh task
// channel, so the next ensureParPool respawns the pool from zero. The caller
// must guarantee no traversal is in flight: dispatch sends on the live
// channel without holding parPoolMu, so a concurrent traversal would send on
// a closed channel. Used by shutdown/reuse stress tests; the production
// process keeps its pool for life.
func drainParPool() {
	parPoolMu.Lock()
	defer parPoolMu.Unlock()
	close(parTasks)
	for parPoolSize.Load() > 0 {
		runtime.Gosched()
	}
	parTasks = make(chan *parRun, maxTraversalWorkers)
}

// topDownChunks is one worker's share of a parallel top-down level: claim
// frontier chunks, CAS-claim discoveries on the shared visited bitmap, and
// collect winners into the private queue. The distance write is plain — only
// the CAS winner performs it, and nothing reads dist[v] until after the
// level barrier.
//
//convlint:hotpath
func (r *parRun) topDownChunks(ws *parWorkerState) {
	offsets, neighbors, dist, vis := r.offsets, r.neighbors, r.dist, r.vis
	q, lo, hi := r.q, r.lo, r.hi
	level := r.level
	local := ws.queue[:0]
	var edges, reached, mfNext int64
	for {
		start := lo + int(r.cursor.Add(parChunkTD)) - parChunkTD
		if start >= hi {
			break
		}
		end := start + parChunkTD
		if end > hi {
			end = hi
		}
		for _, u := range q[start:end] {
			edges += int64(offsets[u+1] - offsets[u])
			for _, v := range neighbors[offsets[u]:offsets[u+1]] {
				w := v >> 6
				bit := uint64(1) << (uint(v) & 63)
				if atomic.LoadUint64(&vis[w])&bit != 0 {
					continue
				}
				for {
					old := atomic.LoadUint64(&vis[w])
					if old&bit != 0 {
						break
					}
					if atomic.CompareAndSwapUint64(&vis[w], old, old|bit) {
						dist[v] = level + 1
						reached++
						mfNext += int64(offsets[v+1] - offsets[v])
						local = append(local, v)
						break
					}
				}
			}
		}
	}
	ws.queue = local
	ws.reached, ws.edges, ws.mfNext = reached, edges, mfNext
}

// bottomUpChunks is one worker's share of a parallel bottom-up level. Chunks
// are word-aligned node ranges, so the visited bitmap, next-frontier bitmap,
// and dist entries this worker writes live in words no other worker touches
// — plain operations throughout; the only atomic is the chunk cursor.
//
//convlint:hotpath
//convlint:shared chunks are word-aligned so each vis/nxt word has exactly one writer per level
func (r *parRun) bottomUpChunks(ws *parWorkerState) {
	offsets, neighbors, dist, vis := r.offsets, r.neighbors, r.dist, r.vis
	cur, nxt := r.curBits, r.nxtBits
	n := r.n
	level := r.level
	words := (n + 63) / 64
	var edges, reached, mfNext, nfNext int64
	for {
		wstart := int(r.cursor.Add(parChunkBU)) - parChunkBU
		if wstart >= words {
			break
		}
		wend := wstart + parChunkBU
		if wend > words {
			wend = words
		}
		vend := wend << 6
		if vend > n {
			vend = n
		}
		for v := wstart << 6; v < vend; v++ {
			if vis[v>>6]&(1<<(uint(v)&63)) != 0 {
				continue
			}
			for _, w := range neighbors[offsets[v]:offsets[v+1]] {
				edges++
				if cur[w>>6]&(1<<(uint(w)&63)) != 0 {
					dist[v] = level + 1
					vis[v>>6] |= 1 << (uint(v) & 63)
					nxt[v>>6] |= 1 << (uint(v) & 63)
					reached++
					mfNext += int64(offsets[v+1] - offsets[v])
					nfNext++
					break
				}
			}
		}
	}
	ws.reached, ws.edges, ws.mfNext, ws.nfNext = reached, edges, mfNext, nfNext
}

// parBFS is the parallel level-synchronous kernel behind the TopDown and
// DirectionOpt engines at parallelism > 1. It mirrors dirOptBFS exactly —
// same Beamer alpha/beta switching on the same deterministic mf/mu/nf
// aggregates, same metrics — but executes each level on up to k cores.
// Distances, reached, and ecc are bit-identical to the scalar kernels.
//
//convlint:hotpath
//convlint:shared plain vis access is confined to serial phases (setup and sub-cutoff levels) with no worker in flight
func parBFS(g *graph.Graph, src int, dist []int32, k int, dirOpt bool, s *Scratch) (reached int, ecc int32) {
	//convlint:nondet sweep latency is observational, not part of results
	start := time.Now()
	offsets, neighbors := g.CSR()
	n := g.NumNodes()
	words := (n + 63) / 64
	s.ensurePar(n, k)
	ensureParPool(k)

	clearWords(s.vis[:words])
	q := s.queue[:0]
	q = append(q, int32(src))
	dist[src] = 0
	s.vis[src>>6] |= 1 << (uint(src) & 63)
	reached = 1

	mf := int64(offsets[src+1] - offsets[src])
	mu := 2*int64(g.NumEdges()) - mf

	level := int32(0)
	levelStart, levelEnd := 0, 1
	bottomUp := false
	nf := 1

	var edges, tdSteps, buSteps, switches int64
	peak := 1
	coresPeak := 1

	r := &s.par
	r.offsets, r.neighbors, r.dist, r.vis = offsets, neighbors, dist, s.vis
	r.n = n

	for {
		if dirOpt && !bottomUp && mf > mu/dirOptAlpha && nf > 1 {
			clearWords(s.cur[:words])
			for _, u := range q[levelStart:levelEnd] {
				s.cur[u>>6] |= 1 << (uint(u) & 63)
			}
			bottomUp = true
			switches++
		} else if dirOpt && bottomUp && nf < n/dirOptBeta {
			levelStart = len(q)
			for w, word := range s.cur[:words] {
				for word != 0 {
					q = append(q, int32(w<<6+bits.TrailingZeros64(word)))
					word &= word - 1
				}
			}
			levelEnd = len(q)
			bottomUp = false
			switches++
		}

		if !bottomUp {
			tdSteps++
			var mfNext int64
			if frontier := levelEnd - levelStart; k > 1 && frontier >= parSerialCutoff {
				kk := k
				if mc := (frontier + parChunkTD - 1) / parChunkTD; kk > mc {
					kk = mc
				}
				if kk > coresPeak {
					coresPeak = kk
				}
				r.phase = parPhaseTopDown
				r.q = q
				r.lo, r.hi = levelStart, levelEnd
				r.level = level
				r.dispatch(kk)
				for i := 0; i < kk; i++ {
					ws := &r.workers[i]
					q = append(q, ws.queue...)
					reached += int(ws.reached)
					edges += ws.edges
					mfNext += ws.mfNext
				}
			} else {
				for head := levelStart; head < levelEnd; head++ {
					u := q[head]
					edges += int64(offsets[u+1] - offsets[u])
					for _, v := range neighbors[offsets[u]:offsets[u+1]] {
						w := v >> 6
						bit := uint64(1) << (uint(v) & 63)
						if s.vis[w]&bit != 0 {
							continue
						}
						s.vis[w] |= bit
						dist[v] = level + 1
						reached++
						mfNext += int64(offsets[v+1] - offsets[v])
						q = append(q, v)
					}
				}
			}
			levelStart, levelEnd = levelEnd, len(q)
			nf = levelEnd - levelStart
			mf = mfNext
			mu -= mfNext
		} else {
			// Bottom-up always goes through dispatch: chunk claims are one
			// atomic per 64 words, and dispatch(1) degenerates to the plain
			// serial scan.
			buSteps++
			clearWords(s.nxt[:words])
			kk := k
			if mc := (words + parChunkBU - 1) / parChunkBU; kk > mc {
				kk = mc
			}
			if kk < 1 {
				kk = 1
			}
			if kk > coresPeak {
				coresPeak = kk
			}
			r.phase = parPhaseBottomUp
			r.curBits, r.nxtBits = s.cur, s.nxt
			r.level = level
			r.dispatch(kk)
			var mfNext, nfNext int64
			for i := 0; i < kk; i++ {
				ws := &r.workers[i]
				reached += int(ws.reached)
				edges += ws.edges
				mfNext += ws.mfNext
				nfNext += ws.nfNext
			}
			mu -= mfNext
			s.cur, s.nxt = s.nxt, s.cur
			nf = int(nfNext)
			mf = mfNext
		}
		if nf > peak {
			peak = nf
		}
		if nf == 0 {
			break
		}
		level++
		ecc = level
	}
	s.queue = q[:0]
	ki := kTopDown
	if dirOpt {
		ki = kDirOpt
	}
	km := &kernelMetrics[ki]
	km.calls.Add(1)
	km.sources.Add(1)
	km.nodes.Add(int64(reached))
	km.edges.Add(edges)
	if dirOpt {
		km.tdSteps.Add(tdSteps)
		km.buSteps.Add(buSteps)
		km.switches.Add(switches)
	}
	peakMax(&km.frontierPeak, int64(peak))
	peakMax(&km.cores, int64(coresPeak))
	observeSweep(ki, start, 1, int64(reached), edges)
	return reached, ecc
}
