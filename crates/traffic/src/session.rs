//! Presence sessions: the intervals during which a terminal is powered on
//! and associated with the network.
//!
//! A present terminal emits continuous light traffic even when its user is
//! not actively doing anything (§2.4 of the paper); an absent terminal emits
//! nothing. Presence is therefore the master switch of the whole energy
//! problem, and the generators control the diurnal shape through it.

use crate::ids::ClientId;
use insomnia_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A contiguous interval during which a client terminal is online.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Session {
    /// The client this session belongs to.
    pub client: ClientId,
    /// Session start (terminal powers on / arrives in range).
    pub start: SimTime,
    /// Session end, exclusive (terminal powers off / leaves).
    pub end: SimTime,
}

impl Session {
    /// Session length.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    /// True if `t` falls inside the session.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }
}

/// Counts how many of the given sessions contain time `t`.
pub fn present_at(sessions: &[Session], t: SimTime) -> usize {
    sessions.iter().filter(|s| s.contains(t)).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(client: u32, a: u64, b: u64) -> Session {
        Session {
            client: ClientId(client),
            start: SimTime::from_secs(a),
            end: SimTime::from_secs(b),
        }
    }

    #[test]
    fn contains_is_half_open() {
        let sess = s(0, 10, 20);
        assert!(!sess.contains(SimTime::from_secs(9)));
        assert!(sess.contains(SimTime::from_secs(10)));
        assert!(sess.contains(SimTime::from_secs(19)));
        assert!(!sess.contains(SimTime::from_secs(20)));
    }

    #[test]
    fn presence_count() {
        let sessions = vec![s(0, 0, 10), s(1, 5, 15), s(2, 20, 30)];
        assert_eq!(present_at(&sessions, SimTime::from_secs(7)), 2);
        assert_eq!(present_at(&sessions, SimTime::from_secs(17)), 0);
        assert_eq!(present_at(&sessions, SimTime::from_secs(25)), 1);
    }

    #[test]
    fn duration_is_end_minus_start() {
        assert_eq!(s(0, 10, 70).duration(), SimDuration::from_secs(60));
    }
}
