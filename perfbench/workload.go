package main

import (
	"fmt"
	"math"

	"sssj/internal/apss"
	"sssj/internal/datagen"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// Shapes of the system under test.
const (
	shapeInproc  = "inproc"  // the public sssj.Joiner, called in-process
	shapeSession = "session" // one sssjd session over loopback
)

// workload fixes everything a run of one workload depends on except the
// seed and the run length.
type workload struct {
	name    string
	profile datagen.Profile
	theta   float64
	lambda  float64
	shape   string
	// passItems is the length of the generated stream. A run replays it
	// pass after pass with shifted timestamps and IDs (see passStream).
	passItems int
	// gap leaves more than one horizon of silence between passes, so no
	// pair crosses a pass boundary. Without it the stream wraps around
	// continuously and the live window stays full across the seam.
	gap bool
	// warmItems is the service set-up's warm-up: items sent before
	// measuring so the live window is steady.
	warmItems int
	// nominal is the closed-loop rate (items/s) that sizes the service
	// throughput phase; it only sets how many items that phase sends.
	nominal float64
	// rateL is the fixed offered rate of the open-loop latency phase.
	rateL float64
	// kernel is the calibration kernel its timings are taken at
	// reference speed by (see calib.go).
	kernel string
}

var workloads = []workload{
	{
		name: "rcv1-long", profile: datagen.RCV1Profile(), theta: 0.7, lambda: 1e-4,
		shape: shapeInproc, passItems: 7 * 3567,
		rateL: 8000, kernel: kernelMemory,
	},
	{
		name: "tweets-short-session", profile: datagen.TweetsProfile(), theta: 0.7, lambda: 1e-2,
		shape: shapeSession, passItems: 50000, gap: true, warmItems: 2000, nominal: 16000,
		rateL: 5000, kernel: kernelService,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (w workload) params() apss.Params { return apss.Params{Theta: w.theta, Lambda: w.lambda} }

// timeQuantum is the grid generated timestamps are rounded to. On it,
// adding a pass offset and taking differences are exact in float64, so
// every pass sees bit-identical decay factors.
const timeQuantum = 1.0 / (1 << 20)

// passStream is one generated pass plus the rule that replays it: global
// item g is item g mod N of the pass, with ID g and its timestamp moved
// forward by (g div N) periods.
type passStream struct {
	items  []stream.Item
	period float64
	tau    float64
}

func newPassStream(w workload, seed int64) *passStream {
	p := w.profile
	p.N = w.passItems
	items := p.Generate(seed)
	for i := range items {
		items[i].Vec = stableNormalize(items[i].Vec)
		items[i].Time = math.Round(items[i].Time/timeQuantum) * timeQuantum
	}
	tau := w.params().Horizon()
	last := items[len(items)-1].Time
	period := last + 1 // RCV1 stamps item i at time i: wrap without a seam
	if w.gap {
		period = math.Ceil(last + tau + 1)
	}
	return &passStream{items: items, period: period, tau: tau}
}

func (s *passStream) n() uint64 { return uint64(len(s.items)) }

// item returns global item g.
func (s *passStream) item(g uint64) stream.Item {
	it := s.items[g%s.n()]
	it.ID = g
	it.Time += float64(g/s.n()) * s.period
	return it
}

// stableNormalize normalizes v until normalizing again leaves every bit
// unchanged, so a server that re-normalizes what it parses holds the
// same vector the in-process reference does.
func stableNormalize(v vec.Vector) vec.Vector {
	for i := 0; i < 8; i++ {
		n := v.Normalize()
		same := true
		for k := range n.Vals {
			if n.Vals[k] != v.Vals[k] {
				same = false
				break
			}
		}
		v = n
		if same {
			break
		}
	}
	return v
}
