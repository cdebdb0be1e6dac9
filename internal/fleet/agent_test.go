package fleet

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"numaperf/internal/probenet"
)

// delayClock records the reconnect delays an agent sleeps and returns
// at once; the heartbeat loop's hour-long sleeps block until the test
// ends.
type delayClock struct {
	mu     sync.Mutex
	delays []time.Duration
	done   chan struct{}
}

func (c *delayClock) Now() time.Time { return time.Now() }

func (c *delayClock) Sleep(d time.Duration) {
	if d >= time.Hour {
		<-c.done
		return
	}
	c.mu.Lock()
	c.delays = append(c.delays, d)
	c.mu.Unlock()
}

// TestAgentBackoffRestartsAfterRegistration: a coordinator that
// accepts every registration and then drops the link makes the agent
// redial again and again. Each outage follows a registered connection,
// so every redial waits a first-retry delay (at most BackoffBase)
// instead of one that doubles over the agent's lifetime.
func TestAgentBackoffRestartsAfterRegistration(t *testing.T) {
	const lives = 6
	clock := &delayClock{done: make(chan struct{})}
	t.Cleanup(func() { close(clock.done) })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var dials int
	a := &ProbeAgent{
		ID:                "probe-a",
		Coordinator:       "coordinator:1",
		HeartbeatInterval: 2 * time.Hour,
		BackoffBase:       time.Millisecond,
		BackoffMax:        time.Second,
		Clock:             clock,
		Dial: func(string, string, time.Duration) (net.Conn, error) {
			dials++
			if dials > lives {
				cancel()
			}
			probe, coord := net.Pipe()
			go func() {
				defer coord.Close()
				if _, _, err := probenet.ReadFrame(coord); err != nil {
					return
				}
				_ = probenet.WriteFrame(coord, probenet.FrameHello, &probenet.Hello{Version: probenet.Version})
			}()
			return probe, nil
		},
	}
	if err := a.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	clock.mu.Lock()
	defer clock.mu.Unlock()
	if len(clock.delays) < lives {
		t.Fatalf("agent slept %d reconnect delays, want at least %d", len(clock.delays), lives)
	}
	for i, d := range clock.delays {
		if d > a.BackoffBase {
			t.Errorf("redial %d after a registered connection waited %v, want at most the %v base", i+1, d, a.BackoffBase)
		}
	}
}
