package federation

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gupster/internal/dirclient"
	"gupster/internal/resilience"
	"gupster/internal/wire"
)

// This file is the client half of the paper's reliability architecture
// (§4.2: the central repository "may be implemented as a constellation of
// connected servers … a family of mirrored servers"; §5.3: "Reliability
// will be achieved by having the logical single entry point be
// implemented by a constellation of GUPster servers"). The servers are a
// quorum-replicated constellation (internal/replication, assembled by
// internal/dirnode), whose every member answers reads from its own
// replica; MirrorClient gives applications the logical single entry point
// over it: a directory handle over the members plus backoff between
// passes.

// ErrAllMirrorsDown reports that no member of the constellation answered.
var ErrAllMirrorsDown = errors.New("federation: all mirrors unreachable")

// MirrorClient is the application's logical single entry point to a
// constellation. Finding the member to talk to — failing over off a dead
// one, following a redirect to the leader — is the directory handle's
// job; what MirrorClient adds is patience: a pass over the constellation
// that found nobody (or only an election in progress) is retried after
// capped, jittered backoff so a blinking constellation is not hammered.
// Application-level errors (denials, spurious queries) are returned
// as-is — they would fail identically everywhere. Safe for concurrent use.
type MirrorClient struct {
	dir *dirclient.Directory
	res *resilience.Group
}

// DialMirrors creates a failover client over the constellation's addresses.
func DialMirrors(addrs []string) (*MirrorClient, error) {
	if len(addrs) == 0 {
		return nil, errors.New("federation: no mirror addresses")
	}
	dir, err := dirclient.Dial(addrs...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAllMirrorsDown, err)
	}
	return &MirrorClient{
		dir: dir,
		res: resilience.NewGroup(
			resilience.Policy{MaxAttempts: 2, BaseDelay: 20 * time.Millisecond, MaxDelay: 200 * time.Millisecond},
			resilience.BreakerConfig{},
			nil,
		),
	}, nil
}

// Call invokes one MDM operation with failover: a pass that reached no
// member is retried after backoff, anything else is the answer.
func (mc *MirrorClient) Call(ctx context.Context, msgType string, req, resp any) error {
	var err error
	for pass := 0; pass < mc.res.Policy.MaxAttempts; pass++ {
		if pass > 0 {
			if resilience.Sleep(ctx, mc.res.Backoff(pass-1)) != nil {
				break
			}
		}
		err = mc.dir.Call(ctx, "", msgType, req, resp)
		if !errors.Is(err, dirclient.ErrUnreachable) {
			return err
		}
	}
	return fmt.Errorf("%w: %v", ErrAllMirrorsDown, err)
}

// Resolve is the common operation, with failover.
func (mc *MirrorClient) Resolve(ctx context.Context, req *wire.ResolveRequest) (*wire.ResolveResponse, error) {
	var resp wire.ResolveResponse
	if err := mc.Call(ctx, wire.TypeResolve, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Close tears down the client's connections.
func (mc *MirrorClient) Close() { mc.dir.Close() }
