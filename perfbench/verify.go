package main

import (
	"encoding/json"
	"fmt"
	"math"

	"mpctree/internal/hst"
	"mpctree/internal/serve"
	"mpctree/internal/workload"
)

// request is one generated query addressed to a tree or ensemble name,
// with the wire body the client sends.
type request struct {
	q      workload.Query
	target string // tree name, or ensembleName
	member int    // index of the tree a plain request names
	path   string
	body   []byte
	want   *answer // serial answer computed ahead of time (hot set only)
}

// answer is the serial answer to a dist or knn request.
type answer struct {
	dists []float64
	nbrs  [][]hst.Neighbor
}

const ensembleName = "ens"

// ensembleEvery sends every k-th dist of a stream to the ensemble.
const ensembleEvery = 4

// memberName is the served name of member tree i.
func memberName(i int) string { return fmt.Sprintf("t-%d", i) }

// newRequest addresses q to member tree member, or to the ensemble.
func newRequest(q workload.Query, member int, ensemble bool) (request, error) {
	target := memberName(member)
	if ensemble {
		target, member = ensembleName, 0
	}
	var v any
	switch q.Kind {
	case workload.QueryDist:
		v = serve.DistRequest{Tree: target, Pairs: q.Pairs}
	case workload.QueryKNN:
		v = serve.KNNRequest{Tree: target, Points: q.Points, K: q.K}
	case workload.QueryCut:
		v = serve.CutRequest{Tree: target, Scale: q.Scale}
	case workload.QueryEMD:
		v = serve.EMDRequest{Tree: target, Mu: q.Mu, Nu: q.Nu}
	case workload.QueryMedoid:
		v = serve.MedoidRequest{Tree: target}
	default:
		return request{}, fmt.Errorf("unknown query kind %v", q.Kind)
	}
	body, err := json.Marshal(v)
	if err != nil {
		return request{}, err
	}
	return request{q: q, target: target, member: member, path: "/v1/" + q.Kind.String(), body: body}, nil
}

// oracle answers every query with serial hst.Tree calls; the served
// answer must match it bit for bit.
type oracle struct {
	trees       []*hst.Tree // plain queries name one; all form the ensemble
	medoid      []int
	medoidDists []float64
}

func newOracle(trees []*hst.Tree) *oracle {
	o := &oracle{trees: trees}
	for _, t := range trees {
		p, d := t.MedoidLeaf()
		o.medoid = append(o.medoid, p)
		o.medoidDists = append(o.medoidDists, d)
	}
	return o
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// solve computes the serial answer to a dist or knn request.
func (o *oracle) solve(req request) *answer {
	q := req.q
	t := o.trees[req.member]
	a := &answer{}
	switch q.Kind {
	case workload.QueryDist:
		a.dists = make([]float64, len(q.Pairs))
		for i, p := range q.Pairs {
			a.dists[i] = t.Dist(p[0], p[1])
			if req.target == ensembleName {
				for _, m := range o.trees[1:] {
					a.dists[i] = math.Min(a.dists[i], m.Dist(p[0], p[1]))
				}
			}
		}
	case workload.QueryKNN:
		a.nbrs = make([][]hst.Neighbor, len(q.Points))
		for i, p := range q.Points {
			a.nbrs[i] = t.KNN(p, q.K)
		}
	}
	return a
}

// verify decodes a 200 response body for req and compares it with the
// serial answer.
func (o *oracle) verify(req request, body []byte) error {
	t := o.trees[req.member]
	q := req.q
	switch q.Kind {
	case workload.QueryDist, workload.QueryKNN:
		want := req.want
		if want == nil {
			want = o.solve(req)
		}
		if q.Kind == workload.QueryDist {
			return verifyDist(req, body, want.dists)
		}
		return verifyKNN(req, body, want.nbrs)
	case workload.QueryCut:
		var resp serve.CutResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("cut: %w", err)
		}
		want := t.CutAtScale(q.Scale)
		if len(resp.Labels) != len(want) {
			return fmt.Errorf("cut(%v): %d labels, want %d", q.Scale, len(resp.Labels), len(want))
		}
		k := 0
		for i, l := range want {
			if resp.Labels[i] != l {
				return fmt.Errorf("cut(%v): label[%d] = %d, want %d", q.Scale, i, resp.Labels[i], l)
			}
			k = max(k, l+1)
		}
		if resp.Clusters != k || len(resp.Sizes) != k {
			return fmt.Errorf("cut(%v): %d clusters / %d sizes, want %d", q.Scale, resp.Clusters, len(resp.Sizes), k)
		}
	case workload.QueryEMD:
		var resp serve.EMDResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("emd: %w", err)
		}
		mu, nu, err := measures(q, t.NumPoints())
		if err != nil {
			return err
		}
		if want := t.EMD(mu, nu); !sameFloat(resp.EMD, want) {
			return fmt.Errorf("emd(%q,%q) = %v, want %v", q.Mu, q.Nu, resp.EMD, want)
		}
	case workload.QueryMedoid:
		var resp serve.MedoidResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("medoid: %w", err)
		}
		if m := req.member; resp.Point != o.medoid[m] || !sameFloat(resp.TotalDist, o.medoidDists[m]) {
			return fmt.Errorf("%s medoid = (%d, %v), want (%d, %v)", req.target, resp.Point, resp.TotalDist, o.medoid[m], o.medoidDists[m])
		}
	}
	return nil
}

func verifyDist(req request, body []byte, want []float64) error {
	var resp serve.DistResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	if len(resp.Dists) != len(want) {
		return fmt.Errorf("dist: %d answers for %d pairs", len(resp.Dists), len(want))
	}
	for i, p := range req.q.Pairs {
		if !sameFloat(resp.Dists[i], want[i]) {
			return fmt.Errorf("%s dist(%d,%d) = %v, want %v", req.target, p[0], p[1], resp.Dists[i], want[i])
		}
	}
	return nil
}

func verifyKNN(req request, body []byte, want [][]hst.Neighbor) error {
	var resp serve.KNNResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("knn: %w", err)
	}
	if len(resp.Neighbors) != len(want) {
		return fmt.Errorf("knn: %d answers for %d points", len(resp.Neighbors), len(want))
	}
	for i, p := range req.q.Points {
		got := resp.Neighbors[i]
		if len(got) != len(want[i]) {
			return fmt.Errorf("knn(%d): %d neighbors, want %d", p, len(got), len(want[i]))
		}
		for j := range got {
			if got[j].Point != want[i][j].Point || !sameFloat(got[j].Dist, want[i][j].Dist) {
				return fmt.Errorf("knn(%d)[%d] = %+v, want %+v", p, j, got[j], want[i][j])
			}
		}
	}
	return nil
}

func measures(q workload.Query, n int) (mu, nu []float64, err error) {
	if mu, err = serve.ParseMeasure(q.Mu, n); err != nil {
		return nil, nil, fmt.Errorf("emd mu: %w", err)
	}
	if nu, err = serve.ParseMeasure(q.Nu, n); err != nil {
		return nil, nil, fmt.Errorf("emd nu: %w", err)
	}
	return mu, nu, nil
}

// kernel runs the serial hst.Tree work a plain request asks for, so its
// time can be set against the handler's.
func (o *oracle) kernel(req request, mu, nu []float64) {
	t, q := o.trees[req.member], req.q
	switch q.Kind {
	case workload.QueryDist:
		for _, p := range q.Pairs {
			sinkF += t.Dist(p[0], p[1])
		}
	case workload.QueryKNN:
		for _, p := range q.Points {
			sinkI += len(t.KNN(p, q.K))
		}
	case workload.QueryCut:
		sinkI += len(t.CutAtScale(q.Scale))
	case workload.QueryEMD:
		sinkF += t.EMD(mu, nu)
	case workload.QueryMedoid:
		p, _ := t.MedoidLeaf()
		sinkI += p
	}
}

// Sinks keep the compiler from discarding timed kernel calls.
var (
	sinkF float64
	sinkI int
)
