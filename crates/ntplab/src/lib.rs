//! # ntplab — the NTP substrate
//!
//! A faithful-enough NTPv4 on top of [`netsim`]:
//!
//! * [`packet`] — the real 48-byte RFC 5905 wire format;
//! * [`timestamp`] — 64-bit era timestamps and 16.16 shorts;
//! * [`clock`] — drifting local clocks measured against simulated true time;
//! * [`server`] — servers that answer from their (honest or lying) clock;
//! * [`assoc`] — the four-timestamp offset/delay measurement;
//! * [`select`] / [`cluster`] / [`combine`] — the classic ntpd pipeline
//!   (Marzullo intersection, cluster pruning, weighted combine);
//! * [`plain`] — the traditional 4-server NTP client the paper uses as its
//!   baseline victim.
//!
//! Chronos (the hardened client this workspace attacks) lives in the
//! `chronos` crate and reuses everything here except the selection pipeline.
//!
//! *(Workspace map: see `ARCHITECTURE.md` at the repo root — crate-by-crate
//! architecture, the data-flow diagram, and the determinism contract.)*

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod assoc;
pub mod clock;
pub mod cluster;
pub mod combine;
pub mod packet;
pub mod plain;
pub mod select;
pub mod server;
pub mod timestamp;

/// Convenient glob-import of the commonly used types.
pub mod prelude {
    pub use crate::assoc::{NtpExchanger, NTP_CLIENT_PORT};
    pub use crate::clock::LocalClock;
    pub use crate::combine::{
        combine, ntpd_pipeline, ntpd_pipeline_with, Combined, PipelineOutcome, PipelineScratch,
    };
    pub use crate::packet::{Mode, NtpPacket, NTP_PORT};
    pub use crate::plain::{PlainNtpClient, PlainNtpConfig};
    pub use crate::select::{intersect, PeerSample};
    pub use crate::server::NtpServer;
    pub use crate::timestamp::{NtpShort, NtpTimestamp};
}
