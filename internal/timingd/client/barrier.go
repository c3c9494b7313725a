package client

import (
	"context"
	"net/http"

	"newgame/internal/timingd"
)

// Prepare runs phase one of the cluster epoch barrier on this shard:
// evaluate ops as a what-if and hold the shard's writer pending
// commit/abort. BaseEpoch must equal the shard's current epoch or the
// shard answers 409.
func (c *Client) Prepare(ctx context.Context, txn string, baseEpoch int64, ops []timingd.Op) (timingd.PrepareResponse, error) {
	var out timingd.PrepareResponse
	err := c.Do(ctx, http.MethodPost, "/cluster/prepare",
		timingd.PrepareRequest{Txn: txn, BaseEpoch: baseEpoch, Ops: ops}, &out)
	return out, err
}

// CommitTxn publishes a prepared transaction, advancing the shard's
// epoch. Committing an unknown (expired or aborted) txn is a 409.
func (c *Client) CommitTxn(ctx context.Context, txn string) (timingd.TxnResponse, error) {
	var out timingd.TxnResponse
	err := c.Do(ctx, http.MethodPost, "/cluster/commit", timingd.TxnRequest{Txn: txn}, &out)
	return out, err
}

// AbortTxn rolls back a prepared transaction. Idempotent: aborting an
// unknown txn answers Done=false with status 200.
func (c *Client) AbortTxn(ctx context.Context, txn string) (timingd.TxnResponse, error) {
	var out timingd.TxnResponse
	err := c.Do(ctx, http.MethodPost, "/cluster/abort", timingd.TxnRequest{Txn: txn}, &out)
	return out, err
}
