package opt

import (
	"errors"
	"fmt"
	"math"
)

// referenceSolve is the solver this package shipped before the
// primal-dual loop: successive shortest paths, one early-terminating heap
// Dijkstra from the super-source and one augmentation per path. It is kept
// as the oracle the current Solve is held to (same minimum cost, same
// error class) and reports how many searches it ran, which is also its
// augmentation count plus one for a search that proves infeasibility.
func referenceSolve(g *Graph) (cost int64, searches int, err error) {
	if g.solved {
		return 0, 0, errors.New("mcf: Solve called twice")
	}
	g.solved = true

	var balance int64
	for _, sup := range g.supply {
		balance += sup
	}
	if balance != 0 {
		return 0, 0, fmt.Errorf("%w: total %d", ErrUnbalanced, balance)
	}

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
	nn := g.n + 2

	r := &referenceSolver{
		pot:      make([]int64, nn),
		dist:     make([]int64, nn),
		visited:  make([]bool, nn),
		prevEdge: make([]int32, nn),
		h:        newDistHeap(0),
	}
	var routed int64
	for routed < totalSupply {
		searches++
		if !r.dijkstra(g, src, t) {
			return 0, searches, fmt.Errorf("%w: %d of %d units unroutable", ErrInfeasible, totalSupply-routed, totalSupply)
		}
		// Dijkstra stops as soon as t is final, so tentative distances
		// beyond dist[t] are clamped to it.
		dt := r.dist[t]
		for v := 0; v < nn; v++ {
			if r.dist[v] < dt {
				r.pot[v] += r.dist[v]
			} else {
				r.pot[v] += dt
			}
		}
		n, c := r.augment(g, src, t, totalSupply-routed)
		routed += n
		cost += c
	}
	return cost, searches, nil
}

type referenceSolver struct {
	pot      []int64
	dist     []int64
	visited  []bool
	prevEdge []int32
	h        *distHeap
}

func (s *referenceSolver) dijkstra(g *Graph, src, t int) bool {
	pot, dist, visited, prevEdge := s.pot, s.dist, s.visited, s.prevEdge
	for i := range dist {
		dist[i] = math.MaxInt64
		visited[i] = false
		prevEdge[i] = -1
	}
	dist[src] = 0
	h := s.h
	h.reset()
	h.push(0, int32(src))
	for h.len() > 0 {
		d, u := h.pop()
		if visited[u] {
			continue
		}
		visited[u] = true
		if int(u) == t {
			break
		}
		for e := g.head[u]; e != -1; e = g.next[e] {
			if g.cap[e] <= 0 {
				continue
			}
			v := g.to[e]
			if visited[v] {
				continue
			}
			nd := d + g.cost[e] + pot[u] - pot[v]
			if nd < dist[v] {
				dist[v] = nd
				prevEdge[v] = e
				h.push(nd, v)
			}
		}
	}
	return visited[t]
}

func (s *referenceSolver) augment(g *Graph, src, t int, remaining int64) (int64, int64) {
	prevEdge := s.prevEdge
	bottleneck := remaining
	for v := int32(t); int(v) != src; {
		e := prevEdge[v]
		if g.cap[e] < bottleneck {
			bottleneck = g.cap[e]
		}
		v = g.to[e^1]
	}
	var cost int64
	for v := int32(t); int(v) != src; {
		e := prevEdge[v]
		g.cap[e] -= bottleneck
		g.cap[e^1] += bottleneck
		cost += bottleneck * g.cost[e]
		v = g.to[e^1]
	}
	return bottleneck, cost
}
