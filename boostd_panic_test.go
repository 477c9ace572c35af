package boosting_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/ioa-lab/boosting"
	"github.com/ioa-lab/boosting/internal/process"
	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/seqtype"
	"github.com/ioa-lab/boosting/internal/server"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/servicetype"
	"github.com/ioa-lab/boosting/internal/system"
)

// panickyForward is the forward program with a bug: the last process's
// handler panics when the consensus object answers 1.
type panickyForward struct {
	protocols.Forward
	last int
}

func (p panickyForward) HandleResponse(ctx *process.Context, svc, resp string) {
	if v, ok := seqtype.DecideValue(resp); ok && v == "1" && ctx.ID() == p.last {
		panic("handler cannot take a 1")
	}
	p.Forward.HandleResponse(ctx, svc, resp)
}

func buildPanickyForward(n, f int) (*system.System, error) {
	eps := make([]int, n)
	procs := make([]*process.Process, n)
	for i := range procs {
		eps[i] = i
		procs[i] = process.New(i, panickyForward{protocols.Forward{Service: "k0"}, n - 1})
	}
	obj, err := service.New(service.Config{Index: "k0", Type: servicetype.FromSequential(seqtype.BinaryConsensus()), Endpoints: eps, Resilience: f})
	if err != nil {
		return nil, err
	}
	return system.New(procs, []*service.Service{obj})
}

// TestBoostdSurvivesExpansionWorkerPanic: a job whose candidate panics in a
// handler while its graph is built ends failed/internal — the engine turns
// the panic into a *PanicError on the job's goroutine — instead of taking the
// daemon down, and the next job on the same server completes. The jobs ask
// for two workers, which bound only the analyses' fan-outs: the build runs on
// the job's goroutine either way.
func TestBoostdSurvivesExpansionWorkerPanic(t *testing.T) {
	boosting.RegisterProtocolForTest(t, "forward-panicky", buildPanickyForward)
	srv := server.New(server.Config{Pool: 1})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown after the panicked job: %v", err)
		}
	}()
	run := func(body string) server.JobView {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ack server.SubmitResponse
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: status %d, %v", body, resp.StatusCode, err)
		}
		for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + ack.ID)
			if err != nil {
				t.Fatal(err)
			}
			var view server.JobView
			err = json.NewDecoder(resp.Body).Decode(&view)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if view.Status == server.StatusDone || view.Status == server.StatusFailed || view.Status == server.StatusCancelled {
				return view
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", ack.ID, view.Status)
			}
		}
	}
	view := run(`{"protocol": "forward-panicky", "n": 6, "f": 0, "analysis": "classify", "options": {"workers": 2}}`)
	if view.Status != server.StatusFailed || view.Error == nil || view.Error.Kind != "internal" ||
		!strings.Contains(view.Error.Message, "handler cannot take a 1") {
		t.Fatalf("panicking job ended %s with error %+v, want failed/internal naming the panic", view.Status, view.Error)
	}
	view = run(`{"protocol": "forward", "n": 3, "f": 0, "analysis": "classify", "options": {"workers": 2}}`)
	if view.Status != server.StatusDone || view.Result == nil || view.Result.States != 410 {
		t.Fatalf("job after the panic: %s (%+v)", view.Status, view.Error)
	}
}
