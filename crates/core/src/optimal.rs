//! The centralized optimum: minimize online gateways subject to coverage,
//! wireless and capacity constraints — the binary integer program of the
//! paper's Eq. (1).
//!
//! ```text
//! minimize   Σ_j o_j
//! subject to Σ_j a_ij ≥ 1 + backup        ∀ active user i
//!            d_i · a_ij ≤ w_ij            ∀ i, j
//!            Σ_i d_i · a_ij ≤ q·c_j·o_j   ∀ gateway j
//! ```
//!
//! The decision problem is NP-complete (SET-COVER reduction, §3.1), so the
//! solver is a branch-and-bound over covers with user-driven branching, a
//! greedy incumbent, capacity/coverage lower bounds, and a first-fit-
//! decreasing capacity check on complete covers. It branches on the
//! uncovered user with the fewest spare options; that count is fixed per
//! user, so the branch order is one user order sorted once per solve, and
//! adding a gateway updates only the coverage counts of the users it
//! reaches (see `Search`). A node budget bounds the worst case; on
//! exhaustion the incumbent is returned and flagged as not proven optimal.
//! "Proven" means optimal among the covers that pass the first-fit-
//! decreasing check (`capacity_feasible`), a heuristic, not Eq. (1)'s
//! capacity constraint.
//! Through the release CLI, one `--quick` repetition of `paper-default`
//! (1440 solves on one solver thread, 2-core host) takes 0.36 s of
//! wall-clock at the preset default, 0.25 ms per solve, all proven; 226 of
//! 1440 solves stay unproven at `topology=binomial` (3.3 s) and 642 at
//! `mean_networks_in_range=3.0` (3.7 s).

use insomnia_simcore::SimError;

/// Solver input: only *active* users (the paper's idle terminals need no
/// connectivity and are excluded from `U`).
#[derive(Debug, Clone)]
pub struct SolverInput {
    /// Demand of each active user, bit/s.
    pub demands: Vec<f64>,
    /// Per active user: `(gateway, w_ij)` options, wireless-feasible ones
    /// only (`w_ij ≥ d_i` filtering is the caller's job via
    /// [`SolverInput::new`]).
    pub reach: Vec<Vec<(usize, f64)>>,
    /// Number of gateways.
    pub n_gateways: usize,
    /// Usable capacity `q·c_j` per gateway, bit/s.
    pub capacity: Vec<f64>,
    /// Backup requirement (extra distinct gateways per user).
    pub backup: usize,
    /// Branch-and-bound node budget.
    pub node_budget: u64,
}

/// Solver result.
#[derive(Debug, Clone)]
pub struct SolverOutput {
    /// Online gateway set (sorted).
    pub online: Vec<usize>,
    /// Whether optimality was proven within the node budget.
    pub proven_optimal: bool,
    /// Nodes explored.
    pub nodes: u64,
}

impl SolverInput {
    /// Builds an input, filtering out links that cannot carry the user's
    /// demand (`w_ij < d_i`). Users left with no feasible link keep their
    /// single best link (the home gateway must carry them regardless —
    /// matching the practical system, where a user can always fall back to
    /// its own line).
    pub fn new(
        demands: Vec<f64>,
        mut reach: Vec<Vec<(usize, f64)>>,
        n_gateways: usize,
        capacity: Vec<f64>,
        backup: usize,
    ) -> Result<Self, SimError> {
        if demands.len() != reach.len() {
            return Err(SimError::InvalidInput("demands/reach length mismatch".into()));
        }
        if capacity.len() != n_gateways {
            return Err(SimError::InvalidInput("capacity length mismatch".into()));
        }
        for (i, options) in reach.iter_mut().enumerate() {
            if options.is_empty() {
                return Err(SimError::InvalidInput(format!("user {i} reaches no gateway")));
            }
            let d = demands[i];
            let best = options
                .iter()
                .copied()
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite rates"))
                .expect("non-empty");
            options.retain(|&(_, w)| w >= d);
            if options.is_empty() {
                options.push(best);
            }
            options.sort_by_key(|&(g, _)| g);
            options.dedup_by_key(|&mut (g, _)| g);
        }
        Ok(SolverInput { demands, reach, n_gateways, capacity, backup, node_budget: 200_000 })
    }

    /// Effective per-user assignment count: `1 + min(backup, options-1)` —
    /// a user who can only see its home cannot have backups.
    fn slots(&self, i: usize) -> usize {
        1 + self.backup.min(self.reach[i].len().saturating_sub(1))
    }
}

/// Solves the instance. An empty user set yields an empty online set.
pub fn solve(input: &SolverInput) -> SolverOutput {
    let n_users = input.demands.len();
    if n_users == 0 {
        return SolverOutput { online: Vec::new(), proven_optimal: true, nodes: 0 };
    }

    // Greedy incumbent. If even capacity repair could not make it feasible
    // the instance is overloaded (more demand than q·c can hold anywhere):
    // every gateway goes online, flagged as a best-effort answer. This
    // return also catches every user with an empty reach row (it has no
    // gateway for its slot), so the search below only sees non-empty rows.
    let mut incumbent = greedy_cover(input);
    if !capacity_feasible(input, &incumbent) {
        return SolverOutput {
            online: (0..input.n_gateways).collect(),
            proven_optimal: false,
            nodes: 0,
        };
    }

    // Lower bound: capacity (every user places its demand on `slots`
    // gateways) and the trivial cover bound.
    let total_load: f64 = (0..n_users).map(|i| input.demands[i] * input.slots(i) as f64).sum();
    let max_cap = input.capacity.iter().cloned().fold(0.0f64, f64::max);
    let cap_lb = if max_cap > 0.0 { (total_load / max_cap).ceil() as usize } else { 1 };
    let min_slots = (0..n_users).map(|i| input.slots(i)).max().unwrap_or(1);
    let lb = cap_lb.max(min_slots).max(1);

    // Iterative deepening on the number of online gateways. Each k
    // exhausted without a cover is a valid lower bound, so the incumbent
    // stays proven unless the node budget runs out first.
    let mut proven = true;
    let mut nodes = 0u64;
    let upper = incumbent.len();
    if lb < upper {
        let mut search = Search::new(input);
        let mut budget = input.node_budget;
        for k in lb..upper {
            search.run(k, budget);
            nodes += search.nodes;
            budget = budget.saturating_sub(search.nodes);
            if let Some(best) = search.found.take() {
                incumbent = best;
                break;
            }
            if budget == 0 {
                proven = false; // ran out of nodes: keep the greedy incumbent
                break;
            }
        }
    }

    incumbent.sort_unstable();
    SolverOutput { online: incumbent, proven_optimal: proven, nodes }
}

/// Greedy multicover: repeatedly add the gateway covering the most unmet
/// user-slots, then verify/repair capacity with first-fit-decreasing.
fn greedy_cover(input: &SolverInput) -> Vec<usize> {
    let n_users = input.demands.len();
    let mut unmet: Vec<usize> = (0..n_users).map(|i| input.slots(i)).collect();
    let mut chosen: Vec<usize> = Vec::new();
    let mut chosen_mask = vec![false; input.n_gateways];
    let mut gain = vec![0usize; input.n_gateways];

    while unmet.iter().any(|&u| u > 0) {
        // Count how many users with unmet slots each unchosen gateway
        // reaches (a gateway can serve at most one slot per user).
        gain.fill(0);
        for i in 0..n_users {
            if unmet[i] == 0 {
                continue;
            }
            // Slots must go to distinct gateways; a chosen gateway already
            // serves this user iff it is in reach — approximated by gain
            // counting only unchosen gateways.
            for &(g, _) in &input.reach[i] {
                if !chosen_mask[g] {
                    gain[g] += 1;
                }
            }
        }
        let best = (0..input.n_gateways).filter(|&g| !chosen_mask[g]).max_by_key(|&g| gain[g]);
        let Some(best) = best.filter(|&g| gain[g] > 0) else {
            // Remaining unmet slots are unsatisfiable (more slots than
            // reachable gateways, or every gateway already chosen); cap
            // them.
            break;
        };
        chosen_mask[best] = true;
        chosen.push(best);
        for i in 0..n_users {
            if unmet[i] > 0 && input.reach[i].iter().any(|&(g, _)| g == best) {
                unmet[i] -= 1;
            }
        }
    }
    // Capacity repair: add gateways while the FFD check fails.
    let mut order: Vec<usize> = (0..input.n_gateways).filter(|&g| !chosen_mask[g]).collect();
    order.sort_by(|&a, &b| {
        input.capacity[b].partial_cmp(&input.capacity[a]).expect("finite capacity")
    });
    let mut extra = order.into_iter();
    while !capacity_feasible(input, &chosen) {
        match extra.next() {
            Some(g) => chosen.push(g),
            None => break,
        }
    }
    chosen
}

/// First-fit-decreasing feasibility: users in decreasing demand, each takes
/// its `slots` least-loaded reachable online gateways. A user with fewer
/// online options than slots fails it, so it checks coverage too.
fn capacity_feasible(input: &SolverInput, online: &[usize]) -> bool {
    let mut online_mask = vec![false; input.n_gateways];
    for &g in online {
        online_mask[g] = true;
    }
    Ffd::new(input).fits(input, &online_mask)
}

/// The first-fit-decreasing placement behind [`capacity_feasible`], with
/// its buffers kept for reuse: the search runs it at every complete cover.
struct Ffd {
    /// Users by decreasing demand (stable: ties keep index order).
    by_demand: Vec<usize>,
    /// Placed load per gateway, bit/s.
    load: Vec<f64>,
    /// One user's online options, least-loaded first.
    options: Vec<usize>,
}

impl Ffd {
    fn new(input: &SolverInput) -> Self {
        let mut by_demand: Vec<usize> = (0..input.demands.len()).collect();
        by_demand
            .sort_by(|&a, &b| input.demands[b].partial_cmp(&input.demands[a]).expect("finite"));
        Ffd { by_demand, load: vec![0.0; input.n_gateways], options: Vec::new() }
    }

    /// Whether every user fits its `slots` on the gateways in `online`.
    fn fits(&mut self, input: &SolverInput, online: &[bool]) -> bool {
        self.load.fill(0.0);
        for &i in &self.by_demand {
            let d = input.demands[i];
            self.options.clear();
            self.options
                .extend(input.reach[i].iter().filter(|&&(g, _)| online[g]).map(|&(g, _)| g));
            let load = &mut self.load;
            self.options.sort_by(|&a, &b| load[a].partial_cmp(&load[b]).expect("finite load"));
            let slots = input.slots(i);
            let mut placed = 0;
            for &g in &self.options {
                if placed == slots {
                    break;
                }
                if load[g] + d <= input.capacity[g] + 1e-9 {
                    load[g] += d;
                    placed += 1;
                }
            }
            if placed < slots {
                return false;
            }
        }
        true
    }
}

/// Depth-first search for a cover of at most `k` gateways, built once per
/// [`solve`] and reused across the iterative-deepening `k` loop. It keeps
/// its state incremental and allocates nothing per node.
///
/// Branch rule: branch on the uncovered user with the fewest spare options,
/// the first such user in index order on ties. For an uncovered user `i`
/// with `have_i` of its reach entries chosen, `options = |reach_i| − have_i`
/// and `missing = slots(i) − have_i`, so the key `options − missing` is
/// `|reach_i| − slots(i)`: constant for the whole solve. The branch user is
/// therefore the first uncovered user in one order sorted by
/// `(|reach_i| − slots(i), i)`, computed once. `options < missing` would
/// need `|reach_i| < slots(i)`, impossible for a non-empty row, and an empty
/// row never reaches the search (`solve`'s overloaded-instance return comes
/// first), so no node is ever cut as infeasible.
struct Search<'a> {
    input: &'a SolverInput,
    /// Users in branch order, ascending `(|reach_i| − slots(i), i)`.
    order: Vec<usize>,
    /// `slots(i)` per user.
    slots: Vec<usize>,
    /// Users reaching gateway `g`: `users[user_start[g]..user_start[g + 1]]`,
    /// one entry per reach entry, so a gateway repeated in a row counts
    /// once per repetition.
    user_start: Vec<usize>,
    users: Vec<usize>,
    /// Chosen gateways, as a mask and in choice order.
    mask: Vec<bool>,
    chosen: Vec<usize>,
    /// Chosen reach entries per user.
    have: Vec<usize>,
    ffd: Ffd,
    k: usize,
    nodes: u64,
    budget: u64,
    found: Option<Vec<usize>>,
}

impl<'a> Search<'a> {
    fn new(input: &'a SolverInput) -> Self {
        let n_users = input.demands.len();
        let n_gw = input.n_gateways;
        let slots: Vec<usize> = (0..n_users).map(|i| input.slots(i)).collect();
        let mut order: Vec<usize> = (0..n_users).collect();
        order.sort_unstable_by_key(|&i| (input.reach[i].len() - slots[i], i));
        let mut user_start = vec![0usize; n_gw + 1];
        for row in &input.reach {
            for &(g, _) in row {
                user_start[g + 1] += 1;
            }
        }
        for g in 0..n_gw {
            user_start[g + 1] += user_start[g];
        }
        let mut next = user_start.clone();
        let mut users = vec![0usize; user_start[n_gw]];
        for (i, row) in input.reach.iter().enumerate() {
            for &(g, _) in row {
                users[next[g]] = i;
                next[g] += 1;
            }
        }
        Search {
            input,
            order,
            slots,
            user_start,
            users,
            mask: vec![false; n_gw],
            chosen: Vec::with_capacity(n_gw),
            have: vec![0; n_users],
            ffd: Ffd::new(input),
            k: 0,
            nodes: 0,
            budget: 0,
            found: None,
        }
    }

    /// Searches for a cover of at most `k` gateways within `budget` nodes.
    /// Every choice is undone on the way back, so the next call starts
    /// from the empty cover again.
    fn run(&mut self, k: usize, budget: u64) {
        self.k = k;
        self.nodes = 0;
        self.budget = budget;
        self.found = None;
        self.dfs(0);
    }

    fn set(&mut self, g: usize, on: bool) {
        self.mask[g] = on;
        for &i in &self.users[self.user_start[g]..self.user_start[g + 1]] {
            if on {
                self.have[i] += 1;
            } else {
                self.have[i] -= 1;
            }
        }
    }

    /// One node. Users before `from` in branch order were covered at the
    /// parent and stay covered here, so the scan resumes at `from`.
    fn dfs(&mut self, from: usize) {
        if self.found.is_some() || self.nodes >= self.budget {
            return;
        }
        self.nodes += 1;
        let uncovered = (from..self.order.len()).find(|&p| {
            let i = self.order[p];
            self.have[i] < self.slots[i]
        });
        let Some(pos) = uncovered else {
            // Full cover: capacity check decides.
            if self.ffd.fits(self.input, &self.mask) {
                self.found = Some(self.chosen.clone());
            }
            return;
        };
        if self.chosen.len() >= self.k {
            return; // no budget to open another gateway
        }
        // Branch on each of the user's unchosen options, in reach order.
        // After each undo the mask is back to this node's, so a gateway
        // repeated in the row is branched on once per repetition.
        let input = self.input;
        for &(g, _) in &input.reach[self.order[pos]] {
            if self.mask[g] {
                continue;
            }
            self.set(g, true);
            self.chosen.push(g);
            self.dfs(pos);
            self.chosen.pop();
            self.set(g, false);
            if self.found.is_some() || self.nodes >= self.budget {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The search this module replaced, kept verbatim as the equivalence
    /// oracle: a fresh mask and a rescan of every reach row per node, and a
    /// freshly allocated first-fit-decreasing check per complete cover.
    mod reference {
        use super::super::{SolverInput, SolverOutput};

        /// Solves the instance. An empty user set yields an empty online set.
        pub fn solve(input: &SolverInput) -> SolverOutput {
            let n_users = input.demands.len();
            if n_users == 0 {
                return SolverOutput { online: Vec::new(), proven_optimal: true, nodes: 0 };
            }

            // Greedy incumbent. If even capacity repair could not make it feasible
            // the instance is overloaded (more demand than q·c can hold anywhere):
            // every gateway goes online, flagged as a best-effort answer.
            let mut incumbent = greedy_cover(input);
            if !capacity_feasible(input, &incumbent) {
                return SolverOutput {
                    online: (0..input.n_gateways).collect(),
                    proven_optimal: false,
                    nodes: 0,
                };
            }
            let mut proven = false;
            let mut nodes = 0u64;

            // Lower bound: capacity (every user places its demand on `slots`
            // gateways) and the trivial cover bound.
            let total_load: f64 =
                (0..n_users).map(|i| input.demands[i] * input.slots(i) as f64).sum();
            let max_cap = input.capacity.iter().cloned().fold(0.0f64, f64::max);
            let cap_lb = if max_cap > 0.0 { (total_load / max_cap).ceil() as usize } else { 1 };
            let min_slots = (0..n_users).map(|i| input.slots(i)).max().unwrap_or(1);
            let lb = cap_lb.max(min_slots).max(1);

            // Iterative deepening on the number of online gateways.
            let upper = incumbent.len();
            let mut budget = input.node_budget;
            for k in lb..upper {
                let mut search =
                    Search { input, k, chosen: Vec::new(), nodes: 0, budget, found: None };
                search.dfs();
                nodes += search.nodes;
                budget = budget.saturating_sub(search.nodes);
                if let Some(best) = search.found {
                    incumbent = best;
                    proven = true;
                    break;
                }
                if budget == 0 {
                    // Ran out of nodes: keep the greedy incumbent, unproven.
                    proven = false;
                    break;
                }
                // k exhausted without a solution: k is a valid lower bound, continue.
                proven = true; // provisionally; final k == upper-1 failing proves greedy optimal
            }
            if upper <= lb {
                proven = true; // greedy already matches the lower bound
            }

            incumbent.sort_unstable();
            SolverOutput { online: incumbent, proven_optimal: proven, nodes }
        }

        /// Greedy multicover: repeatedly add the gateway covering the most unmet
        /// user-slots, then verify/repair capacity with first-fit-decreasing.
        fn greedy_cover(input: &SolverInput) -> Vec<usize> {
            let n_users = input.demands.len();
            let mut unmet: Vec<usize> = (0..n_users).map(|i| input.slots(i)).collect();
            let mut chosen: Vec<usize> = Vec::new();
            let mut chosen_mask = vec![false; input.n_gateways];

            while unmet.iter().any(|&u| u > 0) {
                // Count how many users with unmet slots each unchosen gateway
                // reaches (a gateway can serve at most one slot per user).
                let mut gain = vec![0usize; input.n_gateways];
                for i in 0..n_users {
                    if unmet[i] == 0 {
                        continue;
                    }
                    // Slots must go to distinct gateways; a chosen gateway already
                    // serves this user iff it is in reach — approximated by gain
                    // counting only unchosen gateways.
                    for &(g, _) in &input.reach[i] {
                        if !chosen_mask[g] {
                            gain[g] += 1;
                        }
                    }
                }
                let best = (0..input.n_gateways)
                    .filter(|&g| !chosen_mask[g])
                    .max_by_key(|&g| gain[g])
                    .expect("some gateway must remain");
                if gain[best] == 0 {
                    // Remaining unmet slots are unsatisfiable (more slots than
                    // reachable gateways); cap them.
                    break;
                }
                chosen_mask[best] = true;
                chosen.push(best);
                for i in 0..n_users {
                    if unmet[i] > 0 && input.reach[i].iter().any(|&(g, _)| g == best) {
                        unmet[i] -= 1;
                    }
                }
            }
            // Capacity repair: add gateways while the FFD check fails.
            let mut order: Vec<usize> =
                (0..input.n_gateways).filter(|&g| !chosen_mask[g]).collect();
            order.sort_by(|&a, &b| {
                input.capacity[b].partial_cmp(&input.capacity[a]).expect("finite capacity")
            });
            let mut extra = order.into_iter();
            while !capacity_feasible(input, &chosen) {
                match extra.next() {
                    Some(g) => chosen.push(g),
                    None => break,
                }
            }
            chosen
        }

        /// First-fit-decreasing feasibility: users in decreasing demand, each takes
        /// its `slots` least-loaded reachable online gateways.
        pub fn capacity_feasible(input: &SolverInput, online: &[usize]) -> bool {
            let mut online_mask = vec![false; input.n_gateways];
            for &g in online {
                online_mask[g] = true;
            }
            let n_users = input.demands.len();
            // Coverage first.
            for i in 0..n_users {
                let avail = input.reach[i].iter().filter(|&&(g, _)| online_mask[g]).count();
                if avail < input.slots(i) {
                    return false;
                }
            }
            let mut load = vec![0.0f64; input.n_gateways];
            let mut order: Vec<usize> = (0..n_users).collect();
            order
                .sort_by(|&a, &b| input.demands[b].partial_cmp(&input.demands[a]).expect("finite"));
            for i in order {
                let d = input.demands[i];
                let mut options: Vec<usize> = input.reach[i]
                    .iter()
                    .filter(|&&(g, _)| online_mask[g])
                    .map(|&(g, _)| g)
                    .collect();
                options.sort_by(|&a, &b| load[a].partial_cmp(&load[b]).expect("finite load"));
                let slots = input.slots(i);
                let mut placed = 0;
                for &g in &options {
                    if placed == slots {
                        break;
                    }
                    if load[g] + d <= input.capacity[g] + 1e-9 {
                        load[g] += d;
                        placed += 1;
                    }
                }
                if placed < slots {
                    return false;
                }
            }
            true
        }

        struct Search<'a> {
            input: &'a SolverInput,
            k: usize,
            chosen: Vec<usize>,
            nodes: u64,
            budget: u64,
            found: Option<Vec<usize>>,
        }

        impl Search<'_> {
            fn dfs(&mut self) {
                if self.found.is_some() || self.nodes >= self.budget {
                    return;
                }
                self.nodes += 1;
                // Find the uncovered user with the fewest remaining options.
                let mut chosen_mask = vec![false; self.input.n_gateways];
                for &g in &self.chosen {
                    chosen_mask[g] = true;
                }
                let mut branch_user: Option<(usize, usize)> = None; // (user, missing)
                for i in 0..self.input.demands.len() {
                    let have = self.input.reach[i].iter().filter(|&&(g, _)| chosen_mask[g]).count();
                    let need = self.input.slots(i);
                    if have < need {
                        let options =
                            self.input.reach[i].iter().filter(|&&(g, _)| !chosen_mask[g]).count();
                        let missing = need - have;
                        if options < missing {
                            return; // infeasible branch
                        }
                        let key = options - missing;
                        match branch_user {
                            Some((_, best)) if best <= key => {}
                            _ => branch_user = Some((i, key)),
                        }
                    }
                }
                let Some((user, _)) = branch_user else {
                    // Full cover: capacity check decides.
                    if capacity_feasible(self.input, &self.chosen) {
                        self.found = Some(self.chosen.clone());
                    }
                    return;
                };
                if self.chosen.len() >= self.k {
                    return; // no budget to open another gateway
                }
                // Branch on each of the user's unchosen options (deterministic
                // order: by gateway index).
                let options: Vec<usize> = self.input.reach[user]
                    .iter()
                    .filter(|&&(g, _)| !chosen_mask[g])
                    .map(|&(g, _)| g)
                    .collect();
                for g in options {
                    self.chosen.push(g);
                    self.dfs();
                    self.chosen.pop();
                    if self.found.is_some() || self.nodes >= self.budget {
                        return;
                    }
                }
            }
        }
    }

    /// Exhaustive minimum for tiny instances (ground truth).
    fn brute_force(input: &SolverInput) -> usize {
        let n = input.n_gateways;
        let mut best = usize::MAX;
        for mask in 0u32..(1 << n) {
            let online: Vec<usize> = (0..n).filter(|&g| mask & (1 << g) != 0).collect();
            if online.len() >= best {
                continue;
            }
            if capacity_feasible(input, &online) {
                best = online.len();
            }
        }
        best
    }

    fn mk(
        demands: Vec<f64>,
        reach: Vec<Vec<usize>>,
        n_gw: usize,
        cap: f64,
        backup: usize,
    ) -> SolverInput {
        let reach =
            reach.into_iter().map(|gs| gs.into_iter().map(|g| (g, 12.0e6)).collect()).collect();
        SolverInput::new(demands, reach, n_gw, vec![cap; n_gw], backup).unwrap()
    }

    #[test]
    fn empty_instance_needs_nothing() {
        let input = mk(vec![], vec![], 4, 3.0e6, 0);
        let out = solve(&input);
        assert!(out.online.is_empty());
        assert!(out.proven_optimal);
    }

    #[test]
    fn single_user_single_gateway() {
        let input = mk(vec![1.0e6], vec![vec![2]], 4, 3.0e6, 0);
        let out = solve(&input);
        assert_eq!(out.online, vec![2]);
        assert!(out.proven_optimal);
    }

    #[test]
    fn shared_gateway_covers_everyone() {
        // Three users all reaching gateway 1: one gateway suffices.
        let input =
            mk(vec![0.5e6, 0.5e6, 0.5e6], vec![vec![0, 1], vec![1, 2], vec![1, 3]], 4, 3.0e6, 0);
        let out = solve(&input);
        assert_eq!(out.online.len(), 1);
        assert_eq!(out.online, vec![1]);
    }

    #[test]
    fn capacity_forces_extra_gateways() {
        // Two 2 Mbps users reaching only gateway 0 and 1; capacity 3 Mbps:
        // one gateway cannot hold both (4 > 3).
        let input = mk(vec![2.0e6, 2.0e6], vec![vec![0, 1], vec![0, 1]], 2, 3.0e6, 0);
        let out = solve(&input);
        assert_eq!(out.online.len(), 2);
    }

    #[test]
    fn backup_requires_two_gateways_per_user() {
        let input = mk(vec![0.1e6], vec![vec![0, 3]], 4, 3.0e6, 1);
        let out = solve(&input);
        assert_eq!(out.online, vec![0, 3]);
    }

    #[test]
    fn backup_degrades_gracefully_for_isolated_users() {
        // User sees only its home: backup cannot be met; slots capped at 1.
        let input = mk(vec![0.1e6], vec![vec![2]], 4, 3.0e6, 1);
        let out = solve(&input);
        assert_eq!(out.online, vec![2]);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        use insomnia_simcore::SimRng;
        let mut rng = SimRng::new(77);
        for case in 0..30 {
            let n_gw = 6;
            let n_users = 8;
            let mut reach = Vec::new();
            let mut demands = Vec::new();
            for _ in 0..n_users {
                let home = rng.below_usize(n_gw);
                let mut gs = vec![home];
                for g in 0..n_gw {
                    if g != home && rng.chance(0.4) {
                        gs.push(g);
                    }
                }
                reach.push(gs);
                demands.push(rng.range_f64(0.05e6, 0.8e6));
            }
            let backup = case % 2;
            let input = mk(demands, reach, n_gw, 3.0e6, backup);
            let out = solve(&input);
            let truth = brute_force(&input);
            if truth == usize::MAX {
                // Genuinely overloaded: fallback powers everything.
                assert_eq!(out.online.len(), n_gw, "case {case}");
                assert!(!out.proven_optimal);
                continue;
            }
            assert!(
                capacity_feasible(&input, &out.online),
                "case {case}: solver output infeasible"
            );
            assert_eq!(out.online.len(), truth, "case {case}: {:?}", out.online);
            assert!(out.proven_optimal, "case {case} should be provable");
        }
    }

    #[test]
    fn wireless_filter_drops_thin_links() {
        // Demand 8 Mbps, neighbor link only 6 Mbps: must use home (12 Mbps).
        let reach = vec![vec![(0, 12.0e6), (1, 6.0e6)]];
        let input = SolverInput::new(vec![8.0e6], reach, 2, vec![12.0e6; 2], 0).unwrap();
        assert_eq!(input.reach[0].len(), 1);
        assert_eq!(input.reach[0][0].0, 0);
    }

    #[test]
    fn infeasible_demand_falls_back_to_best_link() {
        // Demand exceeds every link: keep the fastest.
        let reach = vec![vec![(0, 6.0e6), (1, 12.0e6)]];
        let input = SolverInput::new(vec![20.0e6], reach, 2, vec![20.0e6; 2], 0).unwrap();
        assert_eq!(input.reach[0], vec![(1, 12.0e6)]);
    }

    #[test]
    fn budget_exhaustion_returns_greedy() {
        use insomnia_simcore::SimRng;
        let mut rng = SimRng::new(99);
        // A larger instance with a 1-node budget: must fall back gracefully.
        let n_gw = 12;
        let mut reach = Vec::new();
        let mut demands = Vec::new();
        for _ in 0..40 {
            let home = rng.below_usize(n_gw);
            let mut gs = vec![home];
            for g in 0..n_gw {
                if g != home && rng.chance(0.3) {
                    gs.push(g);
                }
            }
            reach.push(gs.into_iter().map(|g| (g, 12.0e6)).collect());
            demands.push(rng.range_f64(0.05e6, 0.5e6));
        }
        let mut input = SolverInput::new(demands, reach, n_gw, vec![3.0e6; n_gw], 1).unwrap();
        input.node_budget = 1;
        let out = solve(&input);
        assert!(capacity_feasible(&input, &out.online), "fallback must be feasible");
    }

    #[test]
    fn greedy_stops_when_repeated_gateways_exhaust_the_pool() {
        // Hand-built rows that repeat their one gateway: each user counts
        // two slots, but a pick meets only one, so every gateway is chosen
        // with slots still unmet. Greedy must stop there, not panic.
        let reach = (0..3).map(|g| vec![(g, 12.0e6), (g, 12.0e6)]).collect();
        let input = SolverInput {
            demands: vec![0.1e6; 3],
            reach,
            n_gateways: 3,
            capacity: vec![3.0e6; 3],
            backup: 1,
            node_budget: 200_000,
        };
        let mut cover = greedy_cover(&input);
        cover.sort_unstable();
        assert_eq!(cover, vec![0, 1, 2]);
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(SolverInput::new(vec![1.0], vec![], 2, vec![1.0; 2], 0).is_err());
        assert!(SolverInput::new(vec![1.0], vec![vec![]], 2, vec![1.0; 2], 0).is_err());
        assert!(SolverInput::new(vec![1.0], vec![vec![(0, 1.0)]], 2, vec![1.0], 0).is_err());
    }

    /// A random instance: each user reaches a home gateway plus each other
    /// gateway with probability `p`, capacities differ per gateway. With
    /// `repeat`, rows bypass [`SolverInput::new`]: they stay unsorted and
    /// about half of those with more than `backup` distinct gateways
    /// repeat one. (A row with fewer distinct gateways than slots makes
    /// greedy run out of gateways on small instances, in both searches.)
    fn random_instance(
        seed: u64,
        n_gw: usize,
        n_users: usize,
        backup: usize,
        repeat: bool,
    ) -> SolverInput {
        use insomnia_simcore::SimRng;
        let mut rng = SimRng::new(seed);
        let p = rng.range_f64(0.1, 0.6);
        let capacity: Vec<f64> = (0..n_gw).map(|_| rng.range_f64(2.0e6, 6.0e6)).collect();
        let mut reach = Vec::new();
        let mut demands = Vec::new();
        for _ in 0..n_users {
            let home = rng.below_usize(n_gw);
            let mut gs = vec![home];
            for g in 0..n_gw {
                if g != home && rng.chance(p) {
                    gs.push(g);
                }
            }
            if repeat && gs.len() > backup && rng.chance(0.5) {
                let g = gs[rng.below_usize(gs.len())];
                let at = rng.below_usize(gs.len() + 1);
                gs.insert(at, g);
            }
            reach.push(gs.into_iter().map(|g| (g, 12.0e6)).collect());
            demands.push(rng.range_f64(0.05e6, 0.6e6));
        }
        if repeat {
            SolverInput { demands, reach, n_gateways: n_gw, capacity, backup, node_budget: 0 }
        } else {
            SolverInput::new(demands, reach, n_gw, capacity, backup).unwrap()
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The incremental search visits the reference's nodes: the same
        /// cover, node count and proof flag, also when the budget runs out
        /// mid-search and when a row repeats a gateway.
        #[test]
        fn search_matches_the_reference(
            seed in any::<u64>(),
            n_gw in 3usize..15,
            n_users in 1usize..41,
            backup in 0usize..3,
            budget in 0usize..4,
            repeat in any::<bool>(),
        ) {
            let mut input = random_instance(seed, n_gw, n_users, backup, repeat);
            input.node_budget = [1, 7, 50, 200_000][budget];
            let (got, want) = (solve(&input), reference::solve(&input));
            prop_assert_eq!(&got.online, &want.online, "seed {}", seed);
            prop_assert_eq!(got.nodes, want.nodes, "seed {}", seed);
            prop_assert_eq!(got.proven_optimal, want.proven_optimal, "seed {}", seed);
        }
    }
}
