package kcenter

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"coresetclustering/internal/clusterer"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/sketch"
)

// Fingerprints pin the bytes. Every stream below is fed a fixed seeded input,
// and at fixed checkpoints its snapshot (KCWN for a window, KCSK otherwise)
// and its extracted answer are folded into two SHA-256 sums, which must equal
// the ones committed in testdata/fingerprints.json. A change that moves any
// centre, weight, phi or bucket boundary by one bit moves a sum, under the
// default build and under -tags purego alike. Regenerate with
//
//	go test -run TestFingerprints -update-fingerprints .
//
// and only for a change that means to move the bytes, saying so in CHANGES.md.
//
// The budget is small (tau 16, base 4) so that a 3 000-point stream runs
// every path a coalesce has: buffered buckets replayed into an initialised
// one, unions folded with exact duplicates — the input sits on a half-unit
// lattice and writes its zero coordinates as -0 or +0 at random, which
// Point.Equal does not tell apart but the snapshot bytes do — and unions
// reduced by GMM. The insertion-only streams run the doubling merge rule,
// and their three shards' sketches are merged.

var updateFingerprints = flag.Bool("update-fingerprints", false, "rewrite testdata/fingerprints.json from this build")

const fingerprintFile = "testdata/fingerprints.json"

// fingerprint is what one stream pins.
type fingerprint struct {
	Snapshot string `json:"snapshot"` // SHA-256 of the snapshots at every checkpoint
	Answer   string `json:"answer"`   // SHA-256 of the extracted results at every checkpoint
}

// fingerprintStream is the input: dim 3, six blobs near the origin drifting
// apart, rounded to multiples of 1/2, a zero coordinate negative half the
// time; timestamps advance one tick every four points.
func fingerprintStream(n int) (metric.Dataset, []int64) {
	rng := rand.New(rand.NewSource(58))
	const dim, blobs = 3, 6
	centres, dirs := make([]metric.Point, blobs), make([]metric.Point, blobs)
	for c := range centres {
		centres[c], dirs[c] = make(metric.Point, dim), make(metric.Point, dim)
		for j := range centres[c] {
			centres[c][j] = 12*rng.Float64() - 6
			dirs[c][j] = rng.NormFloat64()
		}
	}
	pts, ts := make(metric.Dataset, n), make([]int64, n)
	for i := range pts {
		c := rng.Intn(blobs)
		p := make(metric.Point, dim)
		for j := range p {
			v := centres[c][j] + float64(i)*2e-3*dirs[c][j] + 1.5*rng.NormFloat64()
			v = math.Round(2*v) / 2
			if v == 0 && rng.Intn(2) == 0 {
				v = math.Copysign(0, -1)
			}
			p[j] = v
		}
		pts[i], ts[i] = p, int64(i/4)
	}
	return pts, ts
}

// fingerprintSpaces are the built-in spaces, by name.
var fingerprintSpaces = []string{"euclidean", "manhattan", "chebyshev", "angular", "cosine"}

// fingerprintParams are the stream shapes: both kinds, each over a count
// window, a duration window and the whole stream.
func fingerprintParams(sp metric.Space) map[string]clusterer.Params {
	out := map[string]clusterer.Params{}
	for kind, p := range map[string]clusterer.Params{
		"kcenter":  {Kind: sketch.KindKCenter, K: 4},
		"outliers": {Kind: sketch.KindOutliers, K: 3, Z: 2, EpsHat: 0.1},
	} {
		p.Space, p.Tau, p.Workers = sp, 16, 1
		for shape, set := range map[string]func(*clusterer.Params){
			"count":     func(p *clusterer.Params) { p.WindowSize = 600 },
			"duration":  func(p *clusterer.Params) { p.WindowDuration = 150 },
			"insertion": func(*clusterer.Params) {},
		} {
			q := p
			set(&q)
			out[shape+"/"+kind] = q
		}
	}
	return out
}

// hashAnswer folds one extraction into h: the centres' coordinate bits, and
// the outlier search's radius and uncovered weight.
func hashAnswer(h []byte, res *clusterer.Result) []byte {
	h = binary.BigEndian.AppendUint64(h, uint64(len(res.Centers)))
	for _, c := range res.Centers {
		for _, v := range c {
			h = binary.BigEndian.AppendUint64(h, math.Float64bits(v))
		}
	}
	h = binary.BigEndian.AppendUint64(h, math.Float64bits(res.SearchRadius))
	return binary.BigEndian.AppendUint64(h, uint64(res.UncoveredWeight))
}

// checkpoint folds the stream's snapshot and answer into the two running
// digests.
func checkpoint(t *testing.T, c *clusterer.Clusterer, snap, ans []byte) ([]byte, []byte) {
	t.Helper()
	blob, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	s := sha256.Sum256(append(snap, blob...))
	a := sha256.Sum256(hashAnswer(ans, res))
	return s[:], a[:]
}

// runFingerprint feeds the stream to p's clusterer and returns its
// fingerprint; an insertion-only stream also returns the snapshots of three
// shards of the stream, for the merge.
func runFingerprint(t *testing.T, p clusterer.Params, pts metric.Dataset, ts []int64) (fingerprint, [][]byte) {
	t.Helper()
	const every = 250
	windowed := p.WindowSize != 0 || p.WindowDuration != 0
	c, err := clusterer.New(p)
	if err != nil {
		t.Fatal(err)
	}
	var shards [][]byte
	shard, err := clusterer.New(p)
	if err != nil {
		t.Fatal(err)
	}
	var snap, ans []byte
	for i, pt := range pts {
		if windowed {
			err = c.Observe(pt, ts[i])
		} else {
			err = c.Process(pt)
			if err == nil {
				err = shard.Process(pt)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if (i+1)%every == 0 {
			snap, ans = checkpoint(t, c, snap, ans)
		}
		if !windowed && (i+1)%(len(pts)/3) == 0 {
			blob, err := shard.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, blob)
			if shard, err = clusterer.New(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if windowed {
		// A lull expires the oldest buckets of a duration window.
		if err := c.Advance(ts[len(ts)-1] + 40); err != nil {
			t.Fatal(err)
		}
		snap, ans = checkpoint(t, c, snap, ans)
	}
	return fingerprint{hex.EncodeToString(snap), hex.EncodeToString(ans)}, shards
}

// TestFingerprints checks every stream's fingerprint against the committed
// one (or rewrites the file under -update-fingerprints).
func TestFingerprints(t *testing.T) {
	pts, ts := fingerprintStream(3000)
	got := map[string]fingerprint{}
	for _, name := range fingerprintSpaces {
		sp := metric.SpaceByName(name)
		for shape, p := range fingerprintParams(sp) {
			fp, shards := runFingerprint(t, p, pts, ts)
			got[shape+"/"+name] = fp
			if shards == nil {
				continue
			}
			merged, err := MergeSketches(shards...)
			if err != nil {
				t.Fatal(err)
			}
			c, err := clusterer.Restore(merged, 1)
			if err != nil {
				t.Fatal(err)
			}
			snap, ans := checkpoint(t, c, nil, nil)
			got[fmt.Sprintf("merged/%s/%s", p.Kind, name)] = fingerprint{hex.EncodeToString(snap), hex.EncodeToString(ans)}
		}
	}
	if *updateFingerprints {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(fingerprintFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]fingerprint{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, fp := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no committed fingerprint", name)
		} else if fp != w {
			t.Errorf("%s: fingerprint %+v, committed %+v", name, fp, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: committed but not run", name)
		}
	}
}
