"""Keypoint-and-histogram reference classifier.

The pipeline is blur and contrast stretch, scale-space keypoint
description, vector quantization against a learned vocabulary, and a
calibrated linear classifier with a naive Bayes fallback.
"""
