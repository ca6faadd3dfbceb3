//! RPC authentication flavors.
//!
//! NFSv2/v3 traffic on both traced systems used `AUTH_UNIX` (called
//! `AUTH_SYS` in later specs): a plaintext credential carrying the
//! client's hostname, UID, GID, and supplementary GIDs. These are exactly
//! the fields the paper's anonymizer replaces with "arbitrary but
//! consistent values" (§2).

use nfstrace_xdr::{Decoder, Encoder, Error, Pack, Result, Unpack};

/// Authentication flavor numbers from RFC 1831.
pub mod flavor {
    /// No authentication.
    pub const AUTH_NONE: u32 = 0;
    /// Unix-style uid/gid credential.
    pub const AUTH_UNIX: u32 = 1;
}

/// An `AUTH_UNIX` credential body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AuthUnix {
    /// Arbitrary stamp chosen by the client.
    pub stamp: u32,
    /// Client machine name.
    pub machine_name: String,
    /// Effective user id.
    pub uid: u32,
    /// Effective group id.
    pub gid: u32,
    /// Supplementary group ids (at most 16 per the RFC).
    pub gids: Vec<u32>,
}

impl AuthUnix {
    /// A credential for `uid`/`gid` from `machine_name`.
    pub fn new(machine_name: impl Into<String>, uid: u32, gid: u32) -> Self {
        Self {
            stamp: 0,
            machine_name: machine_name.into(),
            uid,
            gid,
            gids: vec![gid],
        }
    }
}

impl Pack for AuthUnix {
    fn pack(&self, enc: &mut Encoder) {
        enc.put_u32(self.stamp);
        enc.put_string(&self.machine_name);
        enc.put_u32(self.uid);
        enc.put_u32(self.gid);
        enc.put_array(&self.gids, |e, g| e.put_u32(*g));
    }
}

impl Unpack for AuthUnix {
    fn unpack(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(AuthUnix {
            stamp: dec.get_u32()?,
            machine_name: dec.get_string()?,
            uid: dec.get_u32()?,
            gid: dec.get_u32()?,
            gids: dec.get_array(|d| d.get_u32())?,
        })
    }
}

/// An opaque authenticator: flavor plus uninterpreted body bytes, with
/// typed access to `AUTH_UNIX` bodies.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OpaqueAuth {
    /// Flavor number (see [`flavor`]).
    pub flavor: u32,
    /// The raw body (itself XDR-encoded for known flavors).
    pub body: Vec<u8>,
}

impl OpaqueAuth {
    /// The `AUTH_NONE` authenticator.
    pub fn none() -> Self {
        Self {
            flavor: flavor::AUTH_NONE,
            body: Vec::new(),
        }
    }

    /// Wraps an [`AuthUnix`] credential.
    pub fn unix(cred: &AuthUnix) -> Self {
        Self {
            flavor: flavor::AUTH_UNIX,
            body: cred.to_xdr_bytes(),
        }
    }

    /// Decodes the body as `AUTH_UNIX`, if that is the flavor.
    ///
    /// # Errors
    ///
    /// XDR errors if the body is malformed.
    pub fn as_unix(&self) -> Option<Result<AuthUnix>> {
        if self.flavor == flavor::AUTH_UNIX {
            Some(AuthUnix::from_xdr_bytes(&self.body))
        } else {
            None
        }
    }
}

impl Pack for OpaqueAuth {
    fn pack(&self, enc: &mut Encoder) {
        enc.put_u32(self.flavor);
        enc.put_opaque_var(&self.body);
    }
}

impl Unpack for OpaqueAuth {
    fn unpack(dec: &mut Decoder<'_>) -> Result<Self> {
        AuthRef::decode(dec).map(AuthRef::to_owned)
    }
}

/// A borrowed authenticator: [`OpaqueAuth`] with the body as a view into
/// the buffer being decoded, so the capture hot path never copies
/// credential bytes. The owned `Unpack` impl is a thin wrapper over this,
/// keeping the two decode paths structurally identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthRef<'a> {
    /// Flavor number (see [`flavor`]).
    pub flavor: u32,
    /// The raw body bytes, borrowed from the record buffer.
    pub body: &'a [u8],
}

impl<'a> AuthRef<'a> {
    /// Reads one authenticator without copying its body, enforcing the
    /// same RFC 1831 400-byte body cap as the owned decoder.
    ///
    /// # Errors
    ///
    /// Exactly those of [`OpaqueAuth`]'s `Unpack`: truncation, a body
    /// length over the decoder limit, or a body over 400 bytes.
    pub fn decode(dec: &mut Decoder<'a>) -> Result<Self> {
        let flavor = dec.get_u32()?;
        let body = dec.get_opaque_var_ref()?;
        if body.len() > 400 {
            // RFC 1831 caps authenticator bodies at 400 bytes.
            return Err(Error::LengthTooLarge {
                declared: body.len(),
                limit: 400,
            });
        }
        Ok(AuthRef { flavor, body })
    }

    /// Copies into an owned [`OpaqueAuth`].
    pub fn to_owned(self) -> OpaqueAuth {
        OpaqueAuth {
            flavor: self.flavor,
            body: self.body.to_vec(),
        }
    }

    /// Extracts `(uid, gid)` from an `AUTH_UNIX` body without
    /// allocating.
    ///
    /// Validation is exactly as strict as
    /// `OpaqueAuth::as_unix` + [`AuthUnix::from_xdr_bytes`]: a non-unix
    /// flavor or any malformation the owned path would reject
    /// (truncation, non-UTF-8 machine name, oversized gids count,
    /// trailing bytes) yields `None`.
    pub fn unix_uid_gid(self) -> Option<(u32, u32)> {
        self.unix_fields().map(|(_, uid, gid)| (uid, gid))
    }

    /// Extracts the client machine name from an `AUTH_UNIX` body
    /// without allocating, under exactly the validation of
    /// [`AuthRef::unix_uid_gid`]: the whole body must decode, not only
    /// the name's prefix of it.
    pub fn unix_machine_name(self) -> Option<&'a str> {
        self.unix_fields().map(|(name, _, _)| name)
    }

    /// `(machine_name, uid, gid)` of a fully validated `AUTH_UNIX` body.
    fn unix_fields(self) -> Option<(&'a str, u32, u32)> {
        if self.flavor != flavor::AUTH_UNIX {
            return None;
        }
        let mut dec = Decoder::new(self.body);
        dec.get_u32().ok()?; // stamp
        let machine_name = dec.get_str_ref().ok()?; // UTF-8 checked
        let uid = dec.get_u32().ok()?;
        let gid = dec.get_u32().ok()?;
        // Supplementary gids: replicate `get_array`'s count bound. The
        // 400-byte body cap makes its max_len bound unreachable before
        // the remaining-bytes bound, so one check suffices.
        let n = dec.get_u32().ok()? as usize;
        if n > dec.remaining() / 4 + 1 {
            return None;
        }
        for _ in 0..n {
            dec.get_u32().ok()?;
        }
        // `from_xdr_bytes` rejects trailing bytes; mirror that.
        dec.is_empty().then_some((machine_name, uid, gid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auth_unix_roundtrip() {
        let cred = AuthUnix {
            stamp: 77,
            machine_name: "client12".to_string(),
            uid: 1002,
            gid: 100,
            gids: vec![100, 200, 300],
        };
        let got = AuthUnix::from_xdr_bytes(&cred.to_xdr_bytes()).unwrap();
        assert_eq!(got, cred);
    }

    #[test]
    fn opaque_auth_unix_roundtrip() {
        let cred = AuthUnix::new("wks", 5, 6);
        let auth = OpaqueAuth::unix(&cred);
        let got = OpaqueAuth::from_xdr_bytes(&auth.to_xdr_bytes()).unwrap();
        assert_eq!(got, auth);
        assert_eq!(got.as_unix().unwrap().unwrap(), cred);
    }

    #[test]
    fn auth_none_has_empty_body() {
        let a = OpaqueAuth::none();
        assert_eq!(a.to_xdr_bytes(), vec![0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(a.as_unix().is_none());
    }

    #[test]
    fn auth_ref_uid_gid_agrees_with_owned_decode() {
        let good = OpaqueAuth::unix(&AuthUnix {
            stamp: 9,
            machine_name: "wks04".to_string(),
            uid: 1002,
            gid: 100,
            gids: vec![100, 200],
        });
        let mut cases = vec![good.clone(), OpaqueAuth::none()];
        // Truncated body (drop the tail), corrupt machine name, and a
        // body with trailing bytes: all must yield None, matching the
        // owned path's decode error.
        let mut truncated = good.clone();
        truncated.body.truncate(truncated.body.len() - 6);
        cases.push(truncated);
        let mut bad_name = good.clone();
        bad_name.body[8] = 0xff; // first machine-name byte
        cases.push(bad_name);
        let mut trailing = good;
        trailing.body.extend_from_slice(&[0, 0, 0, 1]);
        cases.push(trailing);
        for (i, auth) in cases.iter().enumerate() {
            let owned = auth.as_unix().and_then(|r| r.ok());
            // Only the first case is a valid unix credential.
            assert_eq!(owned.is_some(), i == 0, "case {i}");
            let view = AuthRef {
                flavor: auth.flavor,
                body: &auth.body,
            };
            assert_eq!(
                view.unix_uid_gid(),
                owned.as_ref().map(|a| (a.uid, a.gid)),
                "case {i}"
            );
            assert_eq!(
                view.unix_machine_name(),
                owned.as_ref().map(|a| a.machine_name.as_str()),
                "case {i}"
            );
        }
    }

    #[test]
    fn oversized_auth_body_rejected() {
        let mut enc = Encoder::new();
        enc.put_u32(flavor::AUTH_UNIX);
        enc.put_opaque_var(&vec![0u8; 500]);
        assert!(OpaqueAuth::from_xdr_bytes(&enc.into_bytes()).is_err());
    }
}
