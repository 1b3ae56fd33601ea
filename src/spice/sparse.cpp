#include "spice/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "spice/engine.hpp"  // kLuSingularRatio / kLuNearSingularRatio

namespace cryo::spice::sparse {

std::vector<std::int32_t> minimum_degree_order(
    std::int32_t n, const std::vector<std::int32_t>& col_ptr,
    const std::vector<std::int32_t>& row_idx) {
  // Textbook minimum degree on the quotient-free elimination graph of
  // A + A^T: eliminate the minimum-degree node, turn its neighborhood into
  // a clique, repeat. Naive set-merge bookkeeping is O(n * degree^2) in
  // the worst case, which is fine at block scale (hundreds to a few
  // thousand nodes) — the ordering runs once per topology, not per solve.
  std::vector<std::vector<std::int32_t>> adj(static_cast<std::size_t>(n));
  for (std::int32_t c = 0; c < n; ++c) {
    for (std::int32_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
      const std::int32_t r = row_idx[p];
      if (r == c) continue;
      adj[static_cast<std::size_t>(c)].push_back(r);
      adj[static_cast<std::size_t>(r)].push_back(c);
    }
  }
  for (auto& list : adj) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }

  std::vector<char> dead(static_cast<std::size_t>(n), 0);
  std::vector<std::int32_t> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<std::int32_t> merged;
  for (std::int32_t step = 0; step < n; ++step) {
    // Minimum live degree; the tie-break on the smallest node index makes
    // the ordering a pure function of the pattern (determinism guarantee).
    std::int32_t best = -1;
    std::size_t best_deg = std::numeric_limits<std::size_t>::max();
    for (std::int32_t v = 0; v < n; ++v) {
      if (dead[static_cast<std::size_t>(v)]) continue;
      const std::size_t deg = adj[static_cast<std::size_t>(v)].size();
      if (deg < best_deg) {
        best_deg = deg;
        best = v;
      }
    }
    dead[static_cast<std::size_t>(best)] = 1;
    order.push_back(best);

    // Clique the pivot's live neighborhood: each neighbor absorbs the
    // pivot's adjacency, then drops dead nodes and itself. Every list
    // holds live nodes only, so its size IS the elimination-graph degree.
    const auto& pivot_adj = adj[static_cast<std::size_t>(best)];
    for (const std::int32_t u : pivot_adj) {
      if (dead[static_cast<std::size_t>(u)]) continue;
      auto& au = adj[static_cast<std::size_t>(u)];
      merged.clear();
      std::set_union(au.begin(), au.end(), pivot_adj.begin(),
                     pivot_adj.end(), std::back_inserter(merged));
      au.clear();
      for (const std::int32_t w : merged)
        if (w != u && !dead[static_cast<std::size_t>(w)]) au.push_back(w);
    }
    adj[static_cast<std::size_t>(best)].clear();
  }
  return order;
}

void SparseLu::analyze(std::size_t n, const std::vector<Coord>& coords,
                       std::uint64_t* allocations) {
  n_ = static_cast<std::int32_t>(n);
  factored_ = false;

  // Bucket the valid (non-ground) occurrences by column, then sort and
  // dedupe each column into the CSC pattern. The temporaries here are
  // per-analyze allocations — once per topology, like the dense path's
  // stamp-slot precompute in the Engine constructor.
  std::vector<std::int32_t> start(n + 1, 0);
  for (const Coord& c : coords)
    if (c.row >= 0 && c.col >= 0) ++start[static_cast<std::size_t>(c.col) + 1];
  for (std::size_t i = 0; i < n; ++i) start[i + 1] += start[i];
  std::vector<std::int32_t> rows(static_cast<std::size_t>(start[n]));
  {
    std::vector<std::int32_t> pos(start.begin(), start.end() - 1);
    for (const Coord& c : coords)
      if (c.row >= 0 && c.col >= 0)
        rows[static_cast<std::size_t>(
            pos[static_cast<std::size_t>(c.col)]++)] = c.row;
  }
  grow(col_ptr_, n + 1, allocations);
  col_ptr_[0] = 0;
  std::vector<std::int32_t> uniq;
  uniq.reserve(rows.size());
  for (std::size_t c = 0; c < n; ++c) {
    const auto first = rows.begin() + start[c];
    const auto last = rows.begin() + start[c + 1];
    std::sort(first, last);
    for (auto it = first; it != last; ++it)
      if (it == first || *it != *(it - 1)) uniq.push_back(*it);
    col_ptr_[c + 1] = static_cast<std::int32_t>(uniq.size());
  }
  grow(row_idx_, uniq.size(), allocations);
  std::copy(uniq.begin(), uniq.end(), row_idx_.begin());

  // Occurrence -> value-slot map (the sparse analogue of the dense core's
  // row-major offsets): binary search inside the entry's column.
  grow(slot_of_, coords.size(), allocations);
  for (std::size_t i = 0; i < coords.size(); ++i) {
    const Coord& c = coords[i];
    if (c.row < 0 || c.col < 0) {
      slot_of_[i] = kNoSlot;
      continue;
    }
    const auto first = row_idx_.begin() + col_ptr_[c.col];
    const auto last = row_idx_.begin() + col_ptr_[c.col + 1];
    slot_of_[i] = static_cast<std::int32_t>(
        std::lower_bound(first, last, c.row) - row_idx_.begin());
  }

  const std::vector<std::int32_t> order =
      minimum_degree_order(n_, col_ptr_, row_idx_);
  grow(q_, n, allocations);
  std::copy(order.begin(), order.end(), q_.begin());

  const std::size_t nnz = uniq.size();
  grow(vals_, nnz, allocations);
  grow(lin_vals_, nnz, allocations);
  grow(pinv_, n, allocations);
  grow(lp_, n + 1, allocations);
  grow(up_, n + 1, allocations);
  grow(udiag_, n, allocations);
  grow(colscale_, n, allocations);
  grow(arow_piv_, nnz, allocations);
  grow(work_, n, allocations);
  // The accumulator's all-zero invariant must hold for the active slice;
  // a pooled buffer from a larger previous topology is already zero, but a
  // fresh grow() value-initializes anyway — zero explicitly to be
  // independent of history.
  std::fill(work_.begin(), work_.begin() + static_cast<std::ptrdiff_t>(n),
            0.0);
  grow(ysolve_, n, allocations);
  grow(istack_, n, allocations);
  grow(pstack_, n, allocations);
  grow(xi_, n, allocations);
  grow(visited_, n, allocations);
  // stamp_ is monotonic across topologies, so stale visited_ stamps from a
  // previous owner can never collide with future stamps — no reset needed.
}

void SparseLu::compute_colscale() {
  // Per-column scale of the assembled matrix, in pivot-column order —
  // the same relative-pivot reference the dense lu_solve computes.
  for (std::int32_t k = 0; k < n_; ++k) {
    const std::int32_t col = q_[k];
    double m = 0.0;
    for (std::int32_t p = col_ptr_[col]; p < col_ptr_[col + 1]; ++p)
      m = std::max(m, std::abs(vals_[p]));
    colscale_[k] = m;
  }
}

FactorStatus SparseLu::factor(FactorStats* stats,
                              std::uint64_t* allocations) {
  const std::int32_t n = n_;
  factored_ = false;
  compute_colscale();
  std::fill(pinv_.begin(), pinv_.begin() + n, std::int32_t{-1});

  std::size_t lnz = 0, unz = 0;
  lp_[0] = 0;
  up_[0] = 0;
  const auto push_l = [&](std::int32_t i, double v) {
    if (lnz == li_.size()) {
      grow(li_, std::max<std::size_t>(16, 2 * li_.size()), allocations);
      grow(lx_, li_.size(), allocations);
    }
    li_[lnz] = i;
    lx_[lnz] = v;
    ++lnz;
  };
  const auto push_u = [&](std::int32_t i, double v) {
    if (unz == ui_.size()) {
      grow(ui_, std::max<std::size_t>(16, 2 * ui_.size()), allocations);
      grow(ux_, ui_.size(), allocations);
    }
    ui_[unz] = i;
    ux_[unz] = v;
    ++unz;
  };

  double min_ratio = 1.0;
  for (std::int32_t k = 0; k < n; ++k) {
    const std::int32_t col = q_[k];

    // Reach of A(:,col) through the L columns built so far: iterative DFS
    // emitting xi_[top..n) in topological order (CSparse cs_dfs shape).
    ++stamp_;
    std::int32_t top = n;
    for (std::int32_t p = col_ptr_[col]; p < col_ptr_[col + 1]; ++p) {
      if (visited_[row_idx_[p]] == stamp_) continue;
      std::int32_t head = 0;
      istack_[0] = row_idx_[p];
      while (head >= 0) {
        const std::int32_t j = istack_[head];
        const std::int32_t jnew = pinv_[j];
        if (visited_[j] != stamp_) {
          visited_[j] = stamp_;
          pstack_[head] = jnew < 0 ? 0 : lp_[jnew];
        }
        bool done = true;
        const std::int32_t p2 = jnew < 0 ? 0 : lp_[jnew + 1];
        for (std::int32_t pp = pstack_[head]; pp < p2; ++pp) {
          const std::int32_t child = li_[pp];
          if (visited_[child] == stamp_) continue;
          pstack_[head] = pp + 1;
          istack_[++head] = child;
          done = false;
          break;
        }
        if (done) {
          xi_[--top] = j;
          --head;
        }
      }
    }

    // Numeric sparse triangular solve x = L \ A(:,col) over the reach.
    for (std::int32_t p = col_ptr_[col]; p < col_ptr_[col + 1]; ++p)
      work_[row_idx_[p]] = vals_[p];
    for (std::int32_t px = top; px < n; ++px) {
      const std::int32_t j = xi_[px];
      const std::int32_t jnew = pinv_[j];
      if (jnew < 0) continue;
      const double xj = work_[j];
      if (xj == 0.0) continue;
      for (std::int32_t pp = lp_[jnew]; pp < lp_[jnew + 1]; ++pp)
        work_[li_[pp]] -= lx_[pp] * xj;
    }

    // U entries first (rows already pivotal), then the pivot among the
    // rest: strictly-greater magnitude wins, so ties keep the first row in
    // reach order — a fixed function of pattern and values (determinism).
    for (std::int32_t px = top; px < n; ++px) {
      const std::int32_t j = xi_[px];
      if (pinv_[j] >= 0) push_u(pinv_[j], work_[j]);
    }
    std::int32_t ipiv = -1;
    double pivot_abs = -1.0;
    for (std::int32_t px = top; px < n; ++px) {
      const std::int32_t j = xi_[px];
      if (pinv_[j] >= 0) continue;
      const double t = std::abs(work_[j]);
      if (t > pivot_abs) {
        pivot_abs = t;
        ipiv = j;
      }
    }
    const double cscale = colscale_[k];
    if (ipiv < 0 || cscale <= 0.0 ||
        pivot_abs < kLuSingularRatio * cscale) {
      for (std::int32_t px = top; px < n; ++px) work_[xi_[px]] = 0.0;
      return FactorStatus::kSingular;
    }
    min_ratio = std::min(min_ratio, pivot_abs / cscale);
    const double pivot = work_[ipiv];
    pinv_[ipiv] = k;
    udiag_[k] = pivot;
    for (std::int32_t px = top; px < n; ++px) {
      const std::int32_t j = xi_[px];
      if (pinv_[j] < 0) push_l(j, work_[j] / pivot);
      work_[j] = 0.0;
    }

    // refactor() walks U columns in ascending pivot-row order, so sort the
    // new column now (insertion sort; MNA columns are short).
    for (std::size_t a = static_cast<std::size_t>(up_[k]) + 1; a < unz; ++a) {
      const std::int32_t ri = ui_[a];
      const double rv = ux_[a];
      std::size_t b = a;
      while (b > static_cast<std::size_t>(up_[k]) && ui_[b - 1] > ri) {
        ui_[b] = ui_[b - 1];
        ux_[b] = ux_[b - 1];
        --b;
      }
      ui_[b] = ri;
      ux_[b] = rv;
    }

    lp_[k + 1] = static_cast<std::int32_t>(lnz);
    up_[k + 1] = static_cast<std::int32_t>(unz);
  }

  // Freeze: L row indices and the A pattern move to pivot coordinates, so
  // refactor() and solve() never touch pinv_ per entry again.
  li_.resize(lnz);
  lx_.resize(lnz);
  ui_.resize(unz);
  ux_.resize(unz);
  for (std::size_t p = 0; p < lnz; ++p) li_[p] = pinv_[li_[p]];
  for (std::size_t p = 0; p < row_idx_.size(); ++p)
    arow_piv_[p] = pinv_[row_idx_[p]];
  factored_ = true;
  if (stats != nullptr) {
    stats->min_pivot_ratio = min_ratio;
    stats->near_singular = min_ratio < kLuNearSingularRatio;
  }
  return FactorStatus::kOk;
}

FactorStatus SparseLu::refactor(FactorStats* stats) {
  const std::int32_t n = n_;
  compute_colscale();
  double min_ratio = 1.0;
  for (std::int32_t k = 0; k < n; ++k) {
    const std::int32_t col = q_[k];
    // Scatter A(:,col) in pivot-row coordinates; fill-in positions stay at
    // the accumulator's resting zero.
    for (std::int32_t p = col_ptr_[col]; p < col_ptr_[col + 1]; ++p)
      work_[arow_piv_[p]] = vals_[p];
    // Eliminate through the frozen U pattern, ascending pivot row: each
    // U entry is final when consumed, then applies its L-column update.
    for (std::int32_t p = up_[k]; p < up_[k + 1]; ++p) {
      const std::int32_t t = ui_[p];
      const double xt = work_[t];
      ux_[p] = xt;
      work_[t] = 0.0;
      if (xt == 0.0) continue;
      for (std::int32_t pl = lp_[t]; pl < lp_[t + 1]; ++pl)
        work_[li_[pl]] -= lx_[pl] * xt;
    }
    const double pivot = work_[k];
    work_[k] = 0.0;
    const double cscale = colscale_[k];
    const double pivot_abs = std::abs(pivot);
    if (cscale <= 0.0 || pivot_abs < kLuNearSingularRatio * cscale) {
      // The frozen pivot decayed below the near-singular line: without row
      // pivoting, accepting it risks unbounded growth. Restore the
      // accumulator and ask the caller for a fresh full factor (which
      // re-pivots, and is the one that gets to call the system singular).
      for (std::int32_t pl = lp_[k]; pl < lp_[k + 1]; ++pl)
        work_[li_[pl]] = 0.0;
      return FactorStatus::kRepivot;
    }
    min_ratio = std::min(min_ratio, pivot_abs / cscale);
    udiag_[k] = pivot;
    const double inv = 1.0 / pivot;
    for (std::int32_t pl = lp_[k]; pl < lp_[k + 1]; ++pl) {
      const std::int32_t i = li_[pl];
      lx_[pl] = work_[i] * inv;
      work_[i] = 0.0;
    }
  }
  if (stats != nullptr) {
    stats->min_pivot_ratio = min_ratio;
    stats->near_singular = min_ratio < kLuNearSingularRatio;
  }
  return FactorStatus::kOk;
}

void SparseLu::solve(std::vector<double>& b) {
  const std::int32_t n = n_;
  // P A Q = L U, so: permute rows, forward solve through unit L, backward
  // solve through U, un-permute columns.
  for (std::int32_t i = 0; i < n; ++i) ysolve_[pinv_[i]] = b[i];
  for (std::int32_t k = 0; k < n; ++k) {
    const double yk = ysolve_[k];
    if (yk == 0.0) continue;
    for (std::int32_t p = lp_[k]; p < lp_[k + 1]; ++p)
      ysolve_[li_[p]] -= lx_[p] * yk;
  }
  for (std::int32_t k = n; k-- > 0;) {
    const double yk = ysolve_[k] / udiag_[k];
    ysolve_[k] = yk;
    if (yk == 0.0) continue;
    for (std::int32_t p = up_[k]; p < up_[k + 1]; ++p)
      ysolve_[ui_[p]] -= ux_[p] * yk;
  }
  for (std::int32_t k = 0; k < n; ++k) b[q_[k]] = ysolve_[k];
}

}  // namespace cryo::spice::sparse
