//! Domain names: validation, ordering, zone containment.
//!
//! Names are stored as lowercase label sequences (DNS is case-insensitive
//! for matching). Validation follows RFC 1035 limits: labels of 1–63 bytes,
//! total encoded length at most 255.
//!
//! # Examples
//!
//! ```
//! use dnslab::name::Name;
//!
//! let pool: Name = "pool.ntp.org".parse()?;
//! let zone: Name = "ntp.org".parse()?;
//! assert!(pool.is_subdomain_of(&zone));
//! assert_eq!(pool.encoded_len(), 14);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use core::fmt;
use std::error::Error;
use std::str::FromStr;

/// Maximum bytes in one label.
pub const MAX_LABEL_LEN: usize = 63;

/// Maximum encoded name length (length bytes + labels + root byte).
pub const MAX_NAME_LEN: usize = 255;

/// A validated, case-normalised domain name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name {
    labels: Vec<String>,
}

/// Errors from [`Name`] construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label was empty (`..` inside the name).
    EmptyLabel,
    /// A label exceeded 63 bytes.
    LabelTooLong {
        /// The offending label.
        label: String,
    },
    /// The whole name exceeded 255 encoded bytes.
    NameTooLong,
    /// A label contained a byte outside `[a-z0-9-_]` (after lowercasing).
    BadCharacter {
        /// The offending character.
        ch: char,
    },
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel => write!(f, "empty label in domain name"),
            NameError::LabelTooLong { label } => {
                write!(f, "label '{label}' exceeds {MAX_LABEL_LEN} bytes")
            }
            NameError::NameTooLong => write!(f, "encoded name exceeds {MAX_NAME_LEN} bytes"),
            NameError::BadCharacter { ch } => {
                write!(f, "invalid character '{ch}' in domain name")
            }
        }
    }
}

impl Error for NameError {}

impl Name {
    /// The DNS root (empty label sequence).
    pub fn root() -> Self {
        Name { labels: Vec::new() }
    }

    /// Builds a name from labels, validating each.
    ///
    /// # Errors
    ///
    /// Returns a [`NameError`] if any label is invalid or the total length
    /// exceeds the RFC 1035 bound.
    pub fn from_labels<I, S>(labels: I) -> Result<Self, NameError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut out = Vec::new();
        for l in labels {
            let label = l.as_ref().to_ascii_lowercase();
            validate_label(&label)?;
            out.push(label);
        }
        let name = Name { labels: out };
        if name.encoded_len() > MAX_NAME_LEN {
            return Err(NameError::NameTooLong);
        }
        Ok(name)
    }

    /// The labels, most specific first.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Number of labels (0 for the root).
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// `true` for the DNS root.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// Length of the uncompressed wire encoding: one length byte per label,
    /// the label bytes, and the terminating root byte.
    pub fn encoded_len(&self) -> usize {
        self.labels.iter().map(|l| l.len() + 1).sum::<usize>() + 1
    }

    /// `true` if `self` equals `zone` or is beneath it.
    ///
    /// Every name is a subdomain of the root.
    pub fn is_subdomain_of(&self, zone: &Name) -> bool {
        if zone.labels.len() > self.labels.len() {
            return false;
        }
        let offset = self.labels.len() - zone.labels.len();
        self.labels[offset..] == zone.labels[..]
    }

    /// The parent name (one label removed); `None` for the root.
    pub fn parent(&self) -> Option<Name> {
        if self.labels.is_empty() {
            None
        } else {
            Some(Name {
                labels: self.labels[1..].to_vec(),
            })
        }
    }

    /// Prepends a label, e.g. `"ns1"` to `pool.ntp.org`.
    ///
    /// # Errors
    ///
    /// Returns a [`NameError`] if the label is invalid or the result too
    /// long.
    pub fn prepend(&self, label: &str) -> Result<Name, NameError> {
        let mut labels = vec![label.to_ascii_lowercase()];
        labels.extend(self.labels.iter().cloned());
        Name::from_labels(labels)
    }
}

fn validate_label(label: &str) -> Result<(), NameError> {
    if label.is_empty() {
        return Err(NameError::EmptyLabel);
    }
    if label.len() > MAX_LABEL_LEN {
        return Err(NameError::LabelTooLong {
            label: label.to_string(),
        });
    }
    for ch in label.chars() {
        let ok = ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == '-' || ch == '_';
        if !ok {
            return Err(NameError::BadCharacter { ch });
        }
    }
    Ok(())
}

impl FromStr for Name {
    type Err = NameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        if trimmed.is_empty() {
            return Ok(Name::root());
        }
        Name::from_labels(trimmed.split('.'))
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            write!(f, ".")
        } else {
            write!(f, "{}", self.labels.join("."))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n: Name = "Pool.NTP.org".parse().unwrap();
        assert_eq!(n.to_string(), "pool.ntp.org");
        assert_eq!(n.label_count(), 3);
        assert_eq!(n.labels()[0], "pool");
    }

    #[test]
    fn trailing_dot_is_accepted() {
        let a: Name = "ntp.org.".parse().unwrap();
        let b: Name = "ntp.org".parse().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn root_parses_and_displays() {
        let r: Name = ".".parse().unwrap_or_else(|_| Name::root());
        // "." splits into one empty label, so parse via empty string:
        let r2: Name = "".parse().unwrap();
        assert!(r2.is_root());
        assert_eq!(r2.to_string(), ".");
        let _ = r;
    }

    #[test]
    fn encoded_len_matches_rfc1035() {
        let n: Name = "pool.ntp.org".parse().unwrap();
        // 1+4 + 1+3 + 1+3 + 1 = 14
        assert_eq!(n.encoded_len(), 14);
        assert_eq!(Name::root().encoded_len(), 1);
    }

    #[test]
    fn subdomain_relations() {
        let pool: Name = "pool.ntp.org".parse().unwrap();
        let zone: Name = "ntp.org".parse().unwrap();
        let org: Name = "org".parse().unwrap();
        assert!(pool.is_subdomain_of(&zone));
        assert!(pool.is_subdomain_of(&org));
        assert!(pool.is_subdomain_of(&pool));
        assert!(pool.is_subdomain_of(&Name::root()));
        assert!(!zone.is_subdomain_of(&pool));
        let evil: Name = "ntp.org.evil.example".parse().unwrap();
        assert!(!evil.is_subdomain_of(&zone), "suffix must align on labels");
    }

    #[test]
    fn parent_chain() {
        let n: Name = "a.b.c".parse().unwrap();
        let p = n.parent().unwrap();
        assert_eq!(p.to_string(), "b.c");
        assert_eq!(p.parent().unwrap().to_string(), "c");
        assert!(p.parent().unwrap().parent().unwrap().is_root());
        assert!(Name::root().parent().is_none());
    }

    #[test]
    fn prepend_builds_child() {
        let zone: Name = "ntp.org".parse().unwrap();
        let ns = zone.prepend("ns1").unwrap();
        assert_eq!(ns.to_string(), "ns1.ntp.org");
        assert!(ns.is_subdomain_of(&zone));
    }

    #[test]
    fn rejects_bad_labels() {
        assert_eq!("a..b".parse::<Name>(), Err(NameError::EmptyLabel));
        assert!(matches!(
            "bad space.example".parse::<Name>(),
            Err(NameError::BadCharacter { ch: ' ' })
        ));
        let long = "x".repeat(64);
        assert!(matches!(
            format!("{long}.example").parse::<Name>(),
            Err(NameError::LabelTooLong { .. })
        ));
    }

    #[test]
    fn rejects_overlong_name() {
        let label = "x".repeat(63);
        let parts = vec![label.as_str(); 5]; // 5*64 + 1 = 321 > 255
        assert_eq!(Name::from_labels(parts), Err(NameError::NameTooLong));
    }

    #[test]
    fn hyphen_underscore_digits_allowed() {
        assert!("_spf.mail-1.example2".parse::<Name>().is_ok());
    }

    #[test]
    fn ordering_is_stable() {
        let mut v: Vec<Name> = ["b.org", "a.org", "c.org"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        v.sort();
        assert_eq!(v[0].to_string(), "a.org");
    }
}
