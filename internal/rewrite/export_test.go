package rewrite

// RunShardElements runs a shard element-at-a-time whatever its body: the
// path RunShard takes for a body that is not batch-safe, and again for a
// batched shard that fails.
var RunShardElements = runElements

// BatchSafe reports whether RunShard runs pl's body over batches.
var BatchSafe = batchSafe
