// Command steadyagent drives a steadyd control-plane deployment the
// way a cluster-side monitoring daemon would: it registers a platform
// under POST /v1/deployments, then streams cost telemetry at the
// daemon every -interval while watching the deployment's epoch stream
// (GET /v1/deployments/{id}/watch). Halfway through the run (round
// -shift-at) the observed cost of one edge shifts by -shift-factor —
// an NWS-style bandwidth change — and the agent waits for the control
// plane to notice the drift and publish a re-solved epoch. On success
// it prints the deployment's final snapshot JSON to stdout and exits
// 0; if no drift epoch arrives before -timeout it exits 1.
//
// Usage:
//
//	steadyagent                          # demo 3-node star against :8080
//	steadyagent -addr http://host:8080 -id prod -platform p.json \
//	            -shift-edge P1:P2 -shift-factor 1.5 -interval 200ms
//
// scripts/control_smoke.sh builds the CI gate on top of this command.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "steadyd base URL")
		id       = flag.String("id", "agent-demo", "deployment id")
		problem  = flag.String("problem", "masterslave", "problem to keep solved")
		root     = flag.String("root", "", "root node name (empty = platform's first node)")
		model    = flag.String("model", "", "port model (empty = send-and-receive)")
		platFile = flag.String("platform", "", "platform JSON file (empty = built-in 3-node demo star)")
		interval = flag.Duration("interval", 200*time.Millisecond, "telemetry period")
		rounds   = flag.Int("rounds", 10, "telemetry rounds to send")
		shiftAt  = flag.Int("shift-at", 5, "round at which the observed edge cost shifts")
		shiftEdg = flag.String("shift-edge", "", "edge whose cost shifts, as from:to (empty = the platform's first edge)")
		shiftFac = flag.Float64("shift-factor", 1.5, "multiplier applied to the shifted edge's observed cost")
		timeout  = flag.Duration("timeout", 30*time.Second, "max wall time to wait for the drift epoch")
		verbose  = flag.Bool("v", false, "log every epoch and telemetry batch")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("steadyagent: ")

	p, err := loadPlatform(*platFile)
	if err != nil {
		log.Fatal(err)
	}
	shiftFrom, shiftTo, err := resolveShiftEdge(p, *shiftEdg)
	if err != nil {
		log.Fatal(err)
	}

	if err := createDeployment(*addr, *id, *problem, *root, *model, p); err != nil {
		log.Fatalf("create deployment: %v", err)
	}
	log.Printf("registered deployment %q (%s), shifting %s>%s x%g at round %d",
		*id, *problem, shiftFrom, shiftTo, *shiftFac, *shiftAt)

	// The watch stream runs concurrently with the telemetry loop;
	// drifted reports the first re-solved epoch.
	drifted := make(chan epoch, 1)
	go watch(*addr, *id, *verbose, drifted)

	deadline := time.Now().Add(*timeout)
	for i := 0; i < *rounds; i++ {
		obs := observationsFor(p, shiftFrom, shiftTo, i >= *shiftAt, *shiftFac)
		if err := postTelemetry(*addr, *id, obs); err != nil {
			log.Fatalf("telemetry round %d: %v", i, err)
		}
		if *verbose {
			log.Printf("round %d: sent %d observations (shifted=%v)", i, len(obs), i >= *shiftAt)
		}
		time.Sleep(*interval)
	}

	select {
	case ep := <-drifted:
		log.Printf("drift epoch v%d: throughput %s, pivots=%d, cache_hit=%v",
			ep.Version, ep.Throughput, ep.Pivots, ep.CacheHit)
	case <-time.After(time.Until(deadline)):
		log.Fatalf("no drift epoch within %v", *timeout)
	}

	snap, err := getJSON(*addr + "/v1/deployments/" + *id)
	if err != nil {
		log.Fatalf("final snapshot: %v", err)
	}
	os.Stdout.Write(snap)
}

// epoch is the slice of control.Epoch the agent cares about (decoding
// into a local struct keeps the command free of non-stdlib imports
// beyond the platform codec).
type epoch struct {
	Version    uint64 `json:"version"`
	Reason     string `json:"reason"`
	Throughput string `json:"throughput"`
	CacheHit   bool   `json:"cache_hit"`
	Pivots     int    `json:"pivots"`
}

// loadPlatform reads the platform file, or builds the demo star used
// across the control-plane tests and docs: master P1 (w=1), workers
// P2 (w=2, c=1) and P3 (w=3, c=2).
func loadPlatform(path string) (*platform.Platform, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return platform.ReadJSON(f)
	}
	p := platform.New()
	p1 := p.AddNode("P1", platform.WInt(1))
	p2 := p.AddNode("P2", platform.WInt(2))
	p3 := p.AddNode("P3", platform.WInt(3))
	p.AddEdge(p1, p2, rat.FromInt(1))
	p.AddEdge(p1, p3, rat.FromInt(2))
	return p, nil
}

func resolveShiftEdge(p *platform.Platform, spec string) (string, string, error) {
	if spec == "" {
		if p.NumEdges() == 0 {
			return "", "", fmt.Errorf("platform has no edges to shift")
		}
		e := p.Edge(0)
		return p.Name(e.From), p.Name(e.To), nil
	}
	from, to, ok := strings.Cut(spec, ":")
	if !ok {
		return "", "", fmt.Errorf("bad -shift-edge %q (want from:to)", spec)
	}
	return from, to, nil
}

// observationsFor reports every finite node weight and every edge
// cost at its nominal value — except the shifted edge, whose observed
// cost is nominal times factor once shifted is true.
func observationsFor(p *platform.Platform, shiftFrom, shiftTo string, shifted bool, factor float64) []map[string]any {
	var obs []map[string]any
	for i := 0; i < p.NumNodes(); i++ {
		if w := p.Weight(i); !w.Inf {
			obs = append(obs, map[string]any{"node": p.Name(i), "value": w.Val.Float64()})
		}
	}
	for _, e := range p.Edges() {
		v := e.C.Float64()
		if shifted && p.Name(e.From) == shiftFrom && p.Name(e.To) == shiftTo {
			v *= factor
		}
		obs = append(obs, map[string]any{"from": p.Name(e.From), "to": p.Name(e.To), "value": v})
	}
	return obs
}

func createDeployment(addr, id, problem, root, model string, p *platform.Platform) error {
	var pj bytes.Buffer
	if err := p.WriteJSON(&pj); err != nil {
		return err
	}
	req := map[string]any{"id": id, "problem": problem, "platform": json.RawMessage(pj.Bytes())}
	if root != "" {
		req["root"] = root
	}
	if model != "" {
		req["model"] = model
	}
	return postJSON(addr+"/v1/deployments", req)
}

func postTelemetry(addr, id string, obs []map[string]any) error {
	return postJSON(addr+"/v1/deployments/"+id+"/telemetry", map[string]any{"observations": obs})
}

func postJSON(url string, body any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}

func getJSON(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return buf.Bytes(), nil
}

// watch tails the deployment's SSE epoch stream, sending the first
// epoch whose reason is "drift" (the re-solve the shift must provoke)
// to out. Stream errors are fatal only for the initial connect; a
// later drop just stops the tail (the main loop's timeout decides).
func watch(addr, id string, verbose bool, out chan<- epoch) {
	resp, err := http.Get(addr + "/v1/deployments/" + id + "/watch")
	if err != nil {
		log.Fatalf("watch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("watch: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ep epoch
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ep); err != nil {
			continue
		}
		if verbose {
			log.Printf("epoch v%d (%s): throughput %s", ep.Version, ep.Reason, ep.Throughput)
		}
		if ep.Reason == "drift" {
			select {
			case out <- ep:
			default:
			}
		}
	}
}
