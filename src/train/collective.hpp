/**
 * @file
 * Canonical fixed-order gradient reduction (DESIGN.md section 4.11).
 *
 * Floating-point addition is not associative, so "sum the microbatch
 * gradients" does not name one value until the *shape* of the sum is
 * pinned. This module pins it: every reduction is the balanced
 * pairwise binary tree over the leaves in index order -- leaves
 * combine in adjacent pairs, then the pair sums combine in adjacent
 * pairs, and so on (an odd element rides up to the next round
 * unchanged).
 *
 * Two properties make this the determinism keystone of data-parallel
 * training (dist_determinism_test, collective_test):
 *
 *  - *Replica-count independence.* The driver always decomposes a
 *    step into M fixed microbatches and tree-sums all M leaves here,
 *    no matter how many replicas computed them, so the arithmetic is
 *    byte-for-byte the same at any replica count. Moreover, for a
 *    contiguous power-of-two group of leaves, the group's tree sum
 *    is literally an internal node of the global tree -- so replicas
 *    that pre-reduce their own microbatch groups (R | M, contiguous
 *    assignment) feed exactly the partials the global tree needs.
 *
 *  - *Transport independence.* The all-reduce algorithm (ring, tree)
 *    is priced by gpusim's collective cost model but never performs
 *    arithmetic; the functional result always comes from this one
 *    canonical sum. Ring == tree == single-device, bitwise, by
 *    construction.
 */
#pragma once

#include <vector>

namespace train {

/** Balanced pairwise-tree sum over scalars, in leaf order. */
float reduceScalars(const std::vector<float>& leaves);

/**
 * Balanced pairwise-tree elementwise sum over equally-sized vectors,
 * in leaf order. panic()s on ragged leaf lengths (caller bug); an
 * empty leaf list yields an empty vector.
 */
std::vector<float>
reduceVectors(const std::vector<std::vector<float>>& leaves);

} // namespace train
