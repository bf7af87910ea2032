"""Cryptographic substrate: digests, DSA, HMAC oracle, key directory."""

from .digest import digest_int, encode_fields, sha256, signed_bytes
from .dsa import (
    DsaParameters,
    DsaPrivateKey,
    DsaPublicKey,
    DsaSignature,
    default_parameters,
    generate_keypair,
    generate_parameters,
    is_probable_prime,
)
from .keystore import (
    DsaScheme,
    HmacScheme,
    KeyDirectory,
    SignatureScheme,
    Signer,
)
from .verifycache import CachingKeyDirectory, VerifyCache

__all__ = [
    "CachingKeyDirectory",
    "VerifyCache",
    "DsaParameters",
    "DsaPrivateKey",
    "DsaPublicKey",
    "DsaScheme",
    "DsaSignature",
    "HmacScheme",
    "KeyDirectory",
    "SignatureScheme",
    "Signer",
    "default_parameters",
    "digest_int",
    "encode_fields",
    "generate_keypair",
    "generate_parameters",
    "is_probable_prime",
    "sha256",
    "signed_bytes",
]
