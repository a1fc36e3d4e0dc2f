package topology

import "fmt"

// bfsDistances computes single-source shortest-path hop counts over
// the topology's link graph, the ground truth the analytic Distance
// functions are verified against. Unreachable ranks get -1. The
// topology must implement NeighborLister.
func bfsDistances(t Topology, src int) []int {
	checkRank(t, src)
	nl, ok := t.(NeighborLister)
	if !ok {
		panic(fmt.Sprintf("topology: %s does not expose neighbors for BFS", t.Name()))
	}
	dist := make([]int, t.P())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	var buf []int
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		buf = nl.Neighbors(cur, buf[:0])
		for _, n := range buf {
			if dist[n] == -1 {
				dist[n] = dist[cur] + 1
				queue = append(queue, n)
			}
		}
	}
	return dist
}
