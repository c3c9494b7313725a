package client

import (
	"context"
	"net/http"

	"newgame/internal/timingd"
)

// Prepare runs phase one of the cluster epoch barrier on this shard:
// resolve ops, applying nothing, and hold the shard's writer pending
// commit/abort. BaseEpoch must equal the shard's current epoch or the
// shard answers 409; a batch its /eco would refuse is the same 400.
func (c *Client) Prepare(ctx context.Context, txn string, baseEpoch int64, ops []timingd.Op) error {
	return c.Do(ctx, http.MethodPost, "/cluster/prepare",
		timingd.PrepareRequest{Txn: txn, BaseEpoch: baseEpoch, Ops: ops}, nil)
}

// CommitTxn publishes a prepared transaction, advancing the shard's epoch,
// and returns the shard's before/after report in Report. Committing an
// unknown (expired or aborted) txn is a 409.
func (c *Client) CommitTxn(ctx context.Context, txn string) (timingd.TxnResponse, error) {
	var out timingd.TxnResponse
	err := c.Do(ctx, http.MethodPost, "/cluster/commit", timingd.TxnRequest{Txn: txn}, &out)
	return out, err
}

// AbortTxn releases a prepared transaction. Idempotent: aborting an unknown
// txn succeeds too.
func (c *Client) AbortTxn(ctx context.Context, txn string) error {
	return c.Do(ctx, http.MethodPost, "/cluster/abort", timingd.TxnRequest{Txn: txn}, nil)
}
