"""Desk-scale lab for entropy-maximization unlearning in toy diffusion models."""

__version__ = "0.1.0"
