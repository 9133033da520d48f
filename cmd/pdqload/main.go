// Command pdqload drives Zipf-skewed, optionally bursty JSON ingest
// traffic at a pdqd server and reports per-band client-side latency and
// shed rates.
//
//	pdqload [-url http://localhost:8383] [-queue jobs] [-messages 50000]
//	        [-conns 32] [-rate 0] [-keys 256] [-skew 1] [-bands 8,4,2,1]
//	        [-burstlen 0] [-burstmult 2] [-handler noop] [-payload '{}']
//	        [-seed 7]
//
// Arrivals come from internal/workload.Traffic, so a run is reproducible
// from its flags alone. -rate > 0 paces arrivals (messages/sec overall;
// bursts exceed it by -burstmult); 0 blasts as fast as -conns allows.
// -bands weights the priority mix band 0 first: "8,4,2,1" sends 8/16 of
// traffic at band 0 and 1/16 at band 3.
//
// Each response is classified: 202 accepted, 429 shed (the overload
// signal), anything else an error. Per-band request latency (POST round
// trip) lands in pdq.LatencyHistogram buckets; the summary prints p50,
// p99, and the accepted/shed/error counts per band, and the exit status
// is non-zero if any request errored. It is a smoke driver, not a
// measurement: the repo's numbers come from benchmark/ (http_ingest).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pdq"
	"pdq/internal/workload"
)

type bandTally struct {
	sent     atomic.Uint64
	accepted atomic.Uint64
	shed     atomic.Uint64
	errs     atomic.Uint64

	mu   sync.Mutex
	hist pdq.LatencyHistogram
}

func main() {
	var (
		url       = flag.String("url", "http://localhost:8383", "pdqd base URL")
		queue     = flag.String("queue", "jobs", "target queue name")
		messages  = flag.Int("messages", 50_000, "messages to send")
		conns     = flag.Int("conns", 32, "concurrent client connections")
		rate      = flag.Float64("rate", 0, "overall arrival rate in messages/sec (0 = unpaced)")
		keys      = flag.Int("keys", 256, "key-space size")
		skew      = flag.Float64("skew", 1, "Zipf skew of key popularity")
		bands     = flag.String("bands", "8,4,2,1", "per-band traffic weights, band 0 first")
		burstLen  = flag.Int("burstlen", 0, "messages per burst phase (0 = steady)")
		burstMult = flag.Float64("burstmult", 2, "arrival-rate multiplier inside bursts")
		handler   = flag.String("handler", "noop", "wire handler name")
		payload   = flag.String("payload", "", "JSON payload for every message (empty = none)")
		seed      = flag.Uint64("seed", 7, "traffic stream seed")
	)
	flag.Parse()

	var weights []float64
	for _, f := range bytes.Split([]byte(*bands), []byte(",")) {
		var w float64
		if _, err := fmt.Sscanf(string(f), "%g", &w); err != nil {
			fmt.Fprintf(os.Stderr, "pdqload: bad -bands %q: %v\n", *bands, err)
			os.Exit(1)
		}
		weights = append(weights, w)
	}
	if len(weights) > pdq.NumPriorities {
		fmt.Fprintf(os.Stderr, "pdqload: -bands has %d weights, max %d\n", len(weights), pdq.NumPriorities)
		os.Exit(1)
	}
	gen, err := workload.NewTraffic(workload.TrafficConfig{
		Keys: *keys, Skew: *skew, BandShare: weights,
		BurstLen: *burstLen, BurstMult: *burstMult, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdqload:", err)
		os.Exit(1)
	}

	type job struct {
		body []byte
		band int
	}
	jobs := make(chan job, *conns*2)
	var tallies [pdq.NumPriorities]bandTally

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *conns,
		MaxIdleConnsPerHost: *conns,
	}}
	target := *url + "/v1/queues/" + *queue + "/messages"

	var wg sync.WaitGroup
	for i := 0; i < *conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				t := &tallies[j.band]
				t.sent.Add(1)
				start := time.Now()
				resp, err := client.Post(target, "application/json", bytes.NewReader(j.body))
				rtt := time.Since(start)
				if err != nil {
					t.errs.Add(1)
					continue
				}
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusAccepted:
					t.accepted.Add(1)
				case resp.StatusCode == http.StatusTooManyRequests:
					t.shed.Add(1)
				default:
					t.errs.Add(1)
				}
				t.mu.Lock()
				t.hist.Observe(rtt)
				t.mu.Unlock()
			}
		}()
	}

	// The generator paces and feeds; the connection pool posts.
	meanGap := time.Duration(0)
	if *rate > 0 {
		meanGap = time.Duration(float64(time.Second) / *rate)
	}
	start := time.Now()
	next := start
	for i := 0; i < *messages; i++ {
		e := gen.Next()
		wm := map[string]any{"handler": *handler, "keys": []uint64{e.Key}}
		if e.Band > 0 {
			wm["priority"] = e.Band
		}
		if *payload != "" {
			wm["data"] = json.RawMessage(*payload)
		}
		body, err := json.Marshal(wm)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pdqload:", err)
			os.Exit(1)
		}
		if meanGap > 0 {
			next = next.Add(time.Duration(e.Gap * float64(meanGap)))
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		}
		jobs <- job{body: body, band: e.Band}
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Printf("pdqload: %d messages in %v over %d conns\n", *messages, elapsed.Round(time.Millisecond), *conns)
	var accepted, shed, errs uint64
	for b := range tallies {
		t := &tallies[b]
		sent := t.sent.Load()
		if sent == 0 {
			continue
		}
		accepted += t.accepted.Load()
		shed += t.shed.Load()
		errs += t.errs.Load()
		fmt.Printf("  band %d: sent=%d accepted=%d shed=%d errs=%d p50=%v p99=%v\n",
			b, sent, t.accepted.Load(), t.shed.Load(), t.errs.Load(),
			t.hist.Quantile(0.5), t.hist.Quantile(0.99))
	}
	fmt.Printf("  accepted %d (%.0f msgs/sec), shed %d, errors %d\n", accepted, float64(accepted)/elapsed.Seconds(), shed, errs)
	if errs > 0 {
		os.Exit(1)
	}
}
