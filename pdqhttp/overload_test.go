package pdqhttp

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pdq"
	"pdq/internal/workload"
)

// TestOverloadShedsLowBandFirst is the façade's overload regression: a
// burst at roughly twice the drain capacity must shed band 0 with 429s
// while band 3 keeps admitting and its dispatch p99 stays bounded — the
// admission controller converts overload into low-band rejections
// instead of high-band latency.
func TestOverloadShedsLowBandFirst(t *testing.T) {
	const (
		capacity = 100
		workers  = 2
		work     = 2 * time.Millisecond
		total    = 4000
	)
	mux := pdq.NewMux()
	q, err := mux.Queue("jobs", pdq.WithCapacity(capacity))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Register("work", func(json.RawMessage) { time.Sleep(work) })
	pool := pdq.ServeMux(context.Background(), mux, workers)
	defer pool.Stop()
	ts := httptest.NewServer(NewServer(mux, reg))
	defer ts.Close()

	// Offered load: unpaced posts from enough connections to exceed the
	// drain rate (workers/work = 1k msgs/sec) comfortably; mostly band 0
	// with a band-3 trickle, like bulk traffic under control traffic.
	gen, err := workload.NewTraffic(workload.TrafficConfig{
		Keys: 64, Skew: 1, BandShare: []float64{8, 0, 0, 1}, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	type ev struct {
		key  uint64
		band int
	}
	jobs := make(chan ev, 64)
	var mu sync.Mutex
	shed := map[int]int{}
	accepted := map[int]int{}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := ts.Client()
			for e := range jobs {
				body := fmt.Sprintf(`{"handler":"work","keys":[%d],"priority":%d}`, e.key, e.band)
				resp, err := client.Post(ts.URL+"/v1/queues/jobs/messages", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusAccepted:
					accepted[e.band]++
				case http.StatusTooManyRequests:
					shed[e.band]++
				default:
					t.Errorf("status %d for band %d", resp.StatusCode, e.band)
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < total; i++ {
		e := gen.Next()
		jobs <- ev{key: e.Key, band: e.Band}
	}
	close(jobs)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if shed[0] == 0 {
		t.Fatalf("band 0 never shed under 2x overload: accepted=%v shed=%v", accepted, shed)
	}
	if accepted[3] == 0 {
		t.Fatalf("band 3 was starved: accepted=%v shed=%v", accepted, shed)
	}
	// Band 3 must shed proportionally far less than band 0.
	shedFrac := func(b int) float64 {
		n := accepted[b] + shed[b]
		if n == 0 {
			return 0
		}
		return float64(shed[b]) / float64(n)
	}
	if shedFrac(3) > shedFrac(0)/2 {
		t.Fatalf("band 3 shed fraction %.3f vs band 0 %.3f: shedding is not staggered", shedFrac(3), shedFrac(0))
	}
	// Band-3 dispatch latency, as a relative claim — the one the admission
	// policy actually makes: band 3 dispatches ahead of band 0 and band 0
	// is the band gated out of the queue first, so from one BandLatency
	// snapshot band 3's p99 cannot exceed band 0's. No wall-clock bound:
	// a loaded CI box stretches both histograms alike.
	lat := q.Stats().BandLatency
	if lat[3].Count == 0 || lat[0].Count == 0 {
		t.Fatalf("missing dispatch latency samples: band 3 has %d, band 0 has %d", lat[3].Count, lat[0].Count)
	}
	if p3, p0 := lat[3].Quantile(0.99), lat[0].Quantile(0.99); p3 > p0 {
		t.Fatalf("band-3 dispatch p99 = %v exceeds band-0 p99 = %v under overload", p3, p0)
	}
}
