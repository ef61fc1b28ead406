package opt

// The min-cost flow solver: successive shortest paths with Johnson node
// potentials in its primal-dual form. It stands in for the LEMON C++
// library the paper's prototype uses for computing OPT's decisions
// (§2.1), and labels nothing here: it is the oracle that the sweep's
// bypassed bytes are held to (FuzzSweepMatchesFlow,
// TestSweepMatchesFlowOnBenchWindows) and that bounds exhaustive OPT from
// below (TestLabelsAgainstBruteForce).
//
// The solver supports arbitrary directed graphs with integral capacities and
// integral edge costs, and multiple sources/sinks via per-node supplies.
// Edge costs must be non-negative: the FOO graphs buildFlowGraph builds
// only ever need non-negative costs, and this restriction lets every
// shortest-path search use Dijkstra.
//
// Primal-dual means the two halves of a shortest-path augmentation are
// taken apart. Under the current potentials a shortest path is a path of
// arcs with reduced cost exactly zero, so flow is pushed along such arcs
// with breadth-first passes (no heap, several paths per pass) for as long
// as one reaches the sink; a Dijkstra runs only when none does, to raise
// the potentials to the next path-cost level. This matters on FOO graphs
// because under the BHR objective every bypass arc costs the same per
// byte: a 7000-request window routes its flow at a few dozen distinct
// path costs, and the arcs of zero reduced cost form a plateau that is
// most of the graph. A heap search per path pops that plateau's ties in
// arbitrary order and settles ~70 % of the nodes to find a 200-arc path,
// ~3000 times per window; here the same window takes ~20 Dijkstras and
// ~1000 linear passes (Solver.Stats counts them).
//
// The minimum cost is unique; the flow that attains it is not. With
// uniform costs the FOO linear program is massively degenerate, and which
// optimal flow comes out depends on the order ties are met in (adjacency
// order here, heap order in the solver this replaced). Every optimal flow
// misses the same number of bytes, which is all the oracle tests compare.

import (
	"errors"
	"fmt"
)

// Graph is a directed graph with capacities, costs, and node supplies.
// The zero value is not usable; create graphs with NewGraph.
type Graph struct {
	n      int
	supply []int64

	// Edge arrays; forward edge 2k and its residual twin 2k+1.
	to   []int32
	cap  []int64
	cost []int64
	// Adjacency as head/next chains.
	head []int32
	next []int32

	solved bool
}

// NewGraph returns an empty graph with n nodes, numbered 0..n-1.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic("mcf: negative node count")
	}
	head := make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	return &Graph{n: n, supply: make([]int64, n), head: head}
}

// Reset reuses the graph's arrays for a fresh n-node instance, dropping
// all edges and supplies. Repeated solves over same-shaped problems (the
// oracle's FOO graphs) reuse one Graph instead of reallocating the edge
// arena each time.
func (g *Graph) Reset(n int) {
	if n < 0 {
		panic("mcf: negative node count")
	}
	if cap(g.head) < n {
		g.head = make([]int32, n)
	}
	if cap(g.supply) < n {
		g.supply = make([]int64, n)
	}
	g.head = g.head[:n]
	g.supply = g.supply[:n]
	for i := range g.head {
		g.head[i] = -1
		g.supply[i] = 0
	}
	g.n = n
	g.to = g.to[:0]
	g.cap = g.cap[:0]
	g.cost = g.cost[:0]
	g.next = g.next[:0]
	g.solved = false
}

// AddEdge adds a directed edge from -> to with the given capacity and
// non-negative per-unit cost, returning an edge handle for Flow.
func (g *Graph) AddEdge(from, to int, capacity, cost int64) int {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("mcf: AddEdge(%d,%d) out of range [0,%d)", from, to, g.n))
	}
	if capacity < 0 {
		panic("mcf: negative capacity")
	}
	if cost < 0 {
		panic("mcf: negative cost")
	}
	id := len(g.to) / 2
	// Forward edge.
	g.to = append(g.to, int32(to))
	g.cap = append(g.cap, capacity)
	g.cost = append(g.cost, cost)
	g.next = append(g.next, g.head[from])
	g.head[from] = int32(len(g.to) - 1)
	// Residual twin.
	g.to = append(g.to, int32(from))
	g.cap = append(g.cap, 0)
	g.cost = append(g.cost, -cost)
	g.next = append(g.next, g.head[to])
	g.head[to] = int32(len(g.to) - 1)
	return id
}

// AddSupply adds to the flow excess of a node: positive for sources,
// negative for sinks. Supplies must sum to zero across the graph for Solve
// to succeed.
func (g *Graph) AddSupply(node int, delta int64) {
	g.supply[node] += delta
}

// Flow returns the flow routed on a forward edge after Solve.
func (g *Graph) Flow(edge int) int64 {
	return g.cap[2*edge+1] // residual capacity of the twin = routed flow
}

// ErrInfeasible is returned when supplies cannot be routed to demands
// within the edge capacities.
var ErrInfeasible = errors.New("mcf: infeasible flow problem")

// ErrUnbalanced is returned when node supplies do not sum to zero.
var ErrUnbalanced = errors.New("mcf: supplies do not sum to zero")

// Stats counts the work of one Solve, loop by loop, so "how hard was this
// flow" is readable without a profiler: on FOO graphs under BHR costs
// PotentialMoves stays in the tens while Augmentations is in the
// thousands.
type Stats struct {
	// Augmentations is the number of paths flow was pushed along.
	Augmentations int
	// Passes is the number of breadth-first passes over the admissible
	// subgraph, including the one per potential level that finds nothing
	// left to route.
	Passes int
	// Searches is the number of Dijkstra runs. Each one either moves the
	// potentials or proves the problem infeasible, so on a feasible graph
	// Searches == PotentialMoves.
	Searches int
	// PotentialMoves is the number of times the node potentials changed,
	// i.e. the number of distinct path-cost levels the flow was routed at
	// beyond the first.
	PotentialMoves int
}

// Solver holds the primal-dual scratch state (potentials, distances,
// predecessor arcs, search stamps, the admissible-arc lists, the BFS
// queue and the Dijkstra heap) so that repeated solves reuse a single
// allocation instead of rebuilding the arrays per graph. A Solver is not safe for concurrent use; give each
// worker its own.
type Solver struct {
	pot      []int64
	dist     []int64
	prevEdge []int32
	// mark[v] == stamp means the current search has reached v: a BFS
	// pass, or the Dijkstra that continues from the nodes an empty pass
	// reached. Bumping stamp forgets every node at once.
	mark  []uint32
	stamp uint32
	// admStart/adm list, per node, the arcs whose reduced cost is exactly
	// zero under the current potentials (CSR layout, node order, each
	// node's arcs in adjacency order). Rebuilt after every potential
	// move; between moves only capacities change.
	admStart []int32
	adm      []int32
	// queue[:reached] is the BFS order of the last pass; sinks collects
	// the arcs into the super-sink that the pass found open.
	queue   []int32
	reached int
	sinks   []int32
	h       *distHeap
	stats   Stats
}

// NewSolver returns an empty solver; scratch grows to fit the largest
// graph it solves and is retained between calls.
func NewSolver() *Solver {
	return &Solver{h: newDistHeap(0)}
}

// Stats returns the work counters of the most recent Solve.
func (s *Solver) Stats() Stats { return s.stats }

// grow sizes the scratch for a graph with nn nodes (including the
// super-source/sink pair) and arcs residual arcs, and resets the
// potentials and the search stamps.
func (s *Solver) grow(nn, arcs int) {
	if cap(s.pot) < nn {
		s.pot = make([]int64, nn)
		s.dist = make([]int64, nn)
		s.prevEdge = make([]int32, nn)
		s.mark = make([]uint32, nn)
		s.admStart = make([]int32, nn+1)
		s.queue = make([]int32, nn)
		s.sinks = make([]int32, nn)
	}
	if cap(s.adm) < arcs {
		s.adm = make([]int32, arcs)
	}
	s.pot = s.pot[:nn]
	s.dist = s.dist[:nn]
	s.prevEdge = s.prevEdge[:nn]
	s.mark = s.mark[:nn]
	s.admStart = s.admStart[:nn+1]
	s.queue = s.queue[:nn]
	s.sinks = s.sinks[:nn]
	for i := range s.pot {
		s.pot[i] = 0
		s.mark[i] = 0
	}
	s.stamp = 0
}

// Solve routes all supply to demand at minimum total cost and returns
// that cost. Each graph may be solved once (Solve consumes the residual
// capacities); the solver itself is reusable across graphs.
//
// The loop is the primal-dual form of successive shortest paths. Under
// the current potentials every residual arc has non-negative reduced
// cost, and a shortest path is exactly a path of arcs with reduced cost
// zero. So as long as such a path joins the super-source to the
// super-sink, flow is pushed along the zero arcs with plain breadth-first
// passes and no heap; only when none is left does one Dijkstra raise the
// potentials to the next path-cost level (or find the sink unreachable).
func (s *Solver) Solve(g *Graph) (int64, error) {
	s.stats = Stats{}
	if g.solved {
		return 0, errors.New("mcf: Solve called twice")
	}
	g.solved = true

	var balance int64
	for _, sup := range g.supply {
		balance += sup
	}
	if balance != 0 {
		return 0, fmt.Errorf("%w: total %d", ErrUnbalanced, balance)
	}

	// Super-source / super-sink reformulation: append two nodes and
	// connect them to every source/sink.
	src, t := g.n, g.n+1
	g.head = append(g.head, -1, -1)
	var totalSupply int64
	for v := 0; v < g.n; v++ {
		if g.supply[v] > 0 {
			g.addInternal(src, v, g.supply[v], 0)
			totalSupply += g.supply[v]
		} else if g.supply[v] < 0 {
			g.addInternal(v, t, -g.supply[v], 0)
		}
	}

	s.grow(g.n+2, len(g.to))
	s.listAdmissible(g)
	var totalCost, routed int64
	for routed < totalSupply {
		n, c := s.pass(g, int32(src), int32(t))
		if n > 0 {
			routed += n
			totalCost += c
			continue
		}
		// This potential level is saturated: move to the next one.
		if !s.dijkstra(g, int32(t)) {
			return 0, fmt.Errorf("%w: %d of %d units unroutable", ErrInfeasible, totalSupply-routed, totalSupply)
		}
		s.raisePotentials(int32(t))
		s.listAdmissible(g)
	}
	return totalCost, nil
}

// nextStamp starts a new search: every node becomes unreached.
func (s *Solver) nextStamp() uint32 {
	s.stamp++
	if s.stamp == 0 { // wrapped: stale marks could alias the new stamp
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.stamp = 1
	}
	return s.stamp
}

// listAdmissible rebuilds the per-node lists of arcs whose reduced cost
// is exactly zero. An arc and its residual twin have opposite reduced
// costs, so both are listed or neither; capacity is deliberately not
// looked at, because augmentations inside the level open and close arcs
// while the potentials, and so the lists, stay put.
func (s *Solver) listAdmissible(g *Graph) {
	pot, adm, admStart := s.pot, s.adm, s.admStart
	k := int32(0)
	for u := range pot {
		admStart[u] = k
		pu := pot[u]
		for e := g.head[u]; e != -1; e = g.next[e] {
			if g.cost[e]+pu-pot[g.to[e]] == 0 {
				adm[k] = e
				k++
			}
		}
	}
	admStart[len(pot)] = k
}

// pass runs one breadth-first search from src over the admissible arcs
// that still have capacity, visiting everything reachable, and then
// pushes flow along the tree path to every open super-sink arc it met, in
// the order met. Paths of one pass share tree arcs, so a later path may
// find its bottleneck already used up and is skipped; the first never is,
// so a pass that routes nothing proves the level saturated. Returns the
// units routed and their cost. On FOO graphs nearly every arc is
// admissible (all bypass arcs cost the same per byte), which is why the
// search is a plain queue: a heap would pop the ties in arbitrary order
// and settle most of the graph to find one path.
func (s *Solver) pass(g *Graph, src, t int32) (int64, int64) {
	s.stats.Passes++
	stamp := s.nextStamp()
	mark, prevEdge, queue, sinks := s.mark, s.prevEdge, s.queue, s.sinks
	adm, admStart := s.adm, s.admStart
	mark[src] = stamp
	queue[0] = src
	tail, nsinks := 1, 0
	for i := 0; i < tail; i++ {
		u := queue[i]
		for _, e := range adm[admStart[u]:admStart[u+1]] {
			if g.cap[e] <= 0 {
				continue
			}
			v := g.to[e]
			if v == t {
				sinks[nsinks] = e
				nsinks++
				continue
			}
			if mark[v] == stamp {
				continue
			}
			mark[v] = stamp
			prevEdge[v] = e
			queue[tail] = v
			tail++
		}
	}
	s.reached = tail
	var routed, cost int64
	for _, e := range sinks[:nsinks] {
		n, c := s.augment(g, src, e)
		routed += n
		cost += c
	}
	return routed, cost
}

// augment pushes flow along the tree path src..last recorded by pass,
// where last is the arc into the super-sink, and returns the units routed
// and their cost contribution; both are zero when an earlier path of the
// same pass has used up an arc. Tree arcs only lose capacity during a
// pass (a tree arc's twin is never a tree arc), so a node below a used-up
// arc stays cut off until the next pass: its prevEdge is overwritten with
// -1, and a later walk that meets it stops there instead of climbing to
// the same dead end again.
func (s *Solver) augment(g *Graph, src, last int32) (int64, int64) {
	prevEdge := s.prevEdge
	first := g.to[last^1]
	bottleneck := g.cap[last]
	for v := first; v != src; {
		e := prevEdge[v]
		if e < 0 || g.cap[e] <= 0 {
			for w := first; w != v; {
				up := g.to[prevEdge[w]^1]
				prevEdge[w] = -1
				w = up
			}
			prevEdge[v] = -1
			return 0, 0
		}
		if g.cap[e] < bottleneck {
			bottleneck = g.cap[e]
		}
		v = g.to[e^1]
	}
	s.stats.Augmentations++
	g.cap[last] -= bottleneck
	g.cap[last^1] += bottleneck
	cost := bottleneck * g.cost[last]
	for v := first; v != src; {
		e := prevEdge[v]
		g.cap[e] -= bottleneck
		g.cap[e^1] += bottleneck
		cost += bottleneck * g.cost[e]
		v = g.to[e^1]
	}
	return bottleneck, cost
}

// dijkstra runs one shortest-path search from src over reduced costs,
// stopping as soon as t is final, and reports whether t was reached.
// s.dist[v] is meaningful only where s.mark[v] carries the search's
// stamp. It runs once per potential move, not once per path, and only
// right after a pass that found nothing to route: that pass reached
// exactly the nodes at reduced distance zero and left them stamped and
// queued, so they are final before the search begins and only the nodes
// beyond them go through the heap.
func (s *Solver) dijkstra(g *Graph, t int32) bool {
	s.stats.Searches++
	pot, dist, mark, stamp := s.pot, s.dist, s.mark, s.stamp
	plateau := s.queue[:s.reached]
	for _, u := range plateau {
		dist[u] = 0
	}
	h := s.h
	h.reset()
	for i := 0; ; i++ {
		var d int64
		var u int32
		if i < len(plateau) {
			u = plateau[i]
		} else {
			if h.len() == 0 {
				return false
			}
			if d, u = h.pop(); d > dist[u] {
				continue // superseded by a shorter entry for u
			}
			if u == t {
				return true
			}
		}
		for e := g.head[u]; e != -1; e = g.next[e] {
			if g.cap[e] <= 0 {
				continue
			}
			v := g.to[e]
			nd := d + g.cost[e] + pot[u] - pot[v]
			if mark[v] != stamp || nd < dist[v] {
				mark[v] = stamp
				dist[v] = nd
				h.push(nd, v)
			}
		}
	}
}

// raisePotentials adds the distances of the last Dijkstra to the
// potentials. The search stopped when t became final, so a distance of
// dist[t] or more is only tentative (and an unreached node has none);
// clamping those to dist[t] keeps every residual arc's reduced cost
// non-negative, the standard early-termination fix.
func (s *Solver) raisePotentials(t int32) {
	s.stats.PotentialMoves++
	pot, dist, mark, stamp := s.pot, s.dist, s.mark, s.stamp
	dt := dist[t]
	if dt <= 0 {
		// The search only runs once a pass has found no zero-cost path, so
		// a zero distance means the lists or the pass are wrong; stopping
		// here beats searching again forever.
		panic("mcf: a pass left a zero-reduced-cost path unrouted")
	}
	for v := range pot {
		if mark[v] == stamp && dist[v] < dt {
			pot[v] += dist[v]
		} else {
			pot[v] += dt
		}
	}
}

// addInternal appends an edge without bounds checks; used for the
// super-source/super-sink arcs whose endpoints exceed g.n.
func (g *Graph) addInternal(from, to int, capacity, cost int64) {
	g.to = append(g.to, int32(to))
	g.cap = append(g.cap, capacity)
	g.cost = append(g.cost, cost)
	g.next = append(g.next, g.head[from])
	g.head[from] = int32(len(g.to) - 1)

	g.to = append(g.to, int32(from))
	g.cap = append(g.cap, 0)
	g.cost = append(g.cost, -cost)
	g.next = append(g.next, g.head[to])
	g.head[to] = int32(len(g.to) - 1)
}

// distHeap is a binary min-heap of (dist, node) pairs specialized for the
// Dijkstra inner loop; it avoids the interface indirection of
// container/heap, which dominates profile time on large OPT graphs.
type distHeap struct {
	dist []int64
	node []int32
}

func newDistHeap(capacity int) *distHeap {
	return &distHeap{
		dist: make([]int64, 0, capacity),
		node: make([]int32, 0, capacity),
	}
}

func (h *distHeap) len() int { return len(h.dist) }

func (h *distHeap) reset() {
	h.dist = h.dist[:0]
	h.node = h.node[:0]
}

func (h *distHeap) push(d int64, n int32) {
	h.dist = append(h.dist, d)
	h.node = append(h.node, n)
	i := len(h.dist) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.dist[p] <= h.dist[i] {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *distHeap) pop() (int64, int32) {
	d, n := h.dist[0], h.node[0]
	last := len(h.dist) - 1
	h.dist[0], h.node[0] = h.dist[last], h.node[last]
	h.dist = h.dist[:last]
	h.node = h.node[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.dist[l] < h.dist[small] {
			small = l
		}
		if r < last && h.dist[r] < h.dist[small] {
			small = r
		}
		if small == i {
			break
		}
		h.swap(i, small)
		i = small
	}
	return d, n
}

func (h *distHeap) swap(i, j int) {
	h.dist[i], h.dist[j] = h.dist[j], h.dist[i]
	h.node[i], h.node[j] = h.node[j], h.node[i]
}
