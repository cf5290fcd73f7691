package cs2p_test

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cs2p"
	"cs2p/internal/core"
	"cs2p/internal/engine"
	"cs2p/internal/httpapi"
	"cs2p/internal/trace"
	"cs2p/internal/video"
)

// TestPipelineTraceTrainServeplay exercises the full tool pipeline the
// README documents — generate a trace to disk, train from the file, export
// and reload models, serve predictions over a real TCP socket, and drive
// player sessions — using the same code paths as the cmd/ binaries.
func TestPipelineTraceTrainServePlay(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test is slow for -short")
	}
	dir := t.TempDir()

	// 1. tracegen -o trace.csv
	cfg := cs2p.SmallTraceConfig()
	cfg.Sessions = 500
	data, _ := cs2p.GenerateTrace(cfg)
	tracePath := filepath.Join(dir, "trace.csv")
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs2p.WriteTraceCSV(f, data); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// 2. cs2p-train -trace trace.csv -o models.json
	f, err = os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.ReadCSV(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	ecfg := cs2p.DefaultConfig()
	ecfg.Cluster.MinGroupSize = 10
	ecfg.HMM.NStates = 3
	ecfg.HMM.MaxIters = 12
	eng, err := core.Train(loaded, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	store := eng.Store()
	var modelBuf bytes.Buffer
	if err := store.Save(&modelBuf); err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "models.json")
	if err := os.WriteFile(modelPath, modelBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mf, err := os.Open(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := core.LoadModelStore(mf)
	mf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(reloaded.Models) != eng.Clusters() {
		t.Fatalf("model store lost clusters: %d vs %d", len(reloaded.Models), eng.Clusters())
	}

	// 3. cs2p-server on a real socket.
	svc := engine.NewService(eng, ecfg, video.Default())
	srv := httpapi.NewServer(svc, (*core.Engine).Store)
	srv.SetLogf(func(string, ...any) {})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = http.Serve(ln, srv.Handler()) }()
	base := "http://" + ln.Addr().String()

	// 4. cs2p-player: replay sessions against it.
	client := httpapi.NewClient(base)
	deadline := time.Now().Add(3 * time.Second)
	for client.Healthz() != nil {
		if time.Now().After(deadline) {
			t.Fatal("server never became healthy")
		}
		time.Sleep(10 * time.Millisecond)
	}
	played := 0
	for i, s := range loaded.Sessions[400:420] {
		id := fmt.Sprintf("it-%d", i)
		pred, err := client.NewSessionPredictor(id, s.Features, s.StartUnix)
		if err != nil {
			t.Fatal(err)
		}
		res := cs2p.Play(cs2p.DefaultVideo(), cs2p.MPC(), pred, s.Throughput, cs2p.DefaultQoEWeights())
		if res.Chunks == 0 {
			continue
		}
		played++
		if err := client.Log(engine.SessionLog{SessionID: id, QoE: res.QoE, Strategy: "CS2P+MPC"}); err != nil {
			t.Fatal(err)
		}
	}
	if played == 0 {
		t.Fatal("no sessions played")
	}
	if got := len(svc.Logs()); got != played {
		t.Errorf("server recorded %d logs, played %d", got, played)
	}
}
